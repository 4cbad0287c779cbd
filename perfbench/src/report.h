// What one benchmark run produces, and the settings it runs under.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "host.h"
#include "inputs.h"
#include "spans.h"
#include "telemetry/json.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time budget of the run
  bool trace = false;
  Scale scale = Scale::full;
  /// This workload's entry of workloads.json ("params" object): only what
  /// differs between workloads or must be recorded next to the results.
  ihtl::telemetry::JsonValue params;
  std::string serve_bin;  ///< ihtl_serve executable (serve workloads)
  std::string work_dir;   ///< directory for the run's files, inside the checkout
  HostInfo host;

  /// Numeric parameter `key` of this workload; throws if absent.
  double param(const std::string& key) const {
    const ihtl::telemetry::JsonValue* v = params.find(key);
    if (!v || !v->is_number()) {
      throw std::runtime_error("workload " + workload + ": missing parameter " + key);
    }
    return v->as_number();
  }
};

struct Report {
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure descriptions
  std::string invalid;              ///< non-empty: the run is not valid
  ihtl::telemetry::JsonValue details = ihtl::telemetry::JsonValue::object();

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Counts one failed operation and keeps its description.
  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
};

Report run_analytics(const RunConfig& cfg, SpanRecorder& spans);
Report run_serve_mixed(const RunConfig& cfg, SpanRecorder& spans);

}  // namespace perfbench
