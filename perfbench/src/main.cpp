// perfbench_runner: runs one workload once and prints its report as one
// JSON line. run.py builds this binary and wraps it with the benchmark's
// command-line contract; see perfbench/README.md.
//
//   perfbench_runner --workload <name> --seed <n> --seconds <s> --trace 0|1
//                    --config workloads.json --work-dir <dir>
//                    [--serve-bin <ihtl_serve>] [--scale full|tiny]
//                    [--spans-out <file>]
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "report.h"
#include "telemetry/json.h"

namespace {

using ihtl::telemetry::JsonValue;

JsonValue read_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return JsonValue::parse(ss.str());
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      std::fprintf(stderr, "perfbench_runner: unexpected argument %s\n", argv[i]);
      return 2;
    }
    args[argv[i] + 2] = argv[i + 1];
  }
  for (const char* flag : {"workload", "seed", "seconds", "trace", "config", "work-dir"}) {
    if (!args.count(flag)) {
      std::fprintf(stderr, "perfbench_runner: --%s is required\n", flag);
      return 2;
    }
  }
  try {
    perfbench::RunConfig cfg;
    cfg.workload = args.at("workload");
    cfg.seed = std::stoull(args.at("seed"));
    cfg.seconds = std::stod(args.at("seconds"));
    cfg.trace = args.at("trace") == "1";
    cfg.scale = args.count("scale") && args["scale"] == "tiny"
                    ? perfbench::Scale::tiny
                    : perfbench::Scale::full;
    cfg.work_dir = args.at("work-dir");
    if (args.count("serve-bin")) cfg.serve_bin = args["serve-bin"];
    const JsonValue config = read_json(args.at("config"));
    const JsonValue* entry = nullptr;
    for (const JsonValue& w : config.find("workloads")->items()) {
      if (w.find("name")->as_string() == cfg.workload) entry = &w;
    }
    if (!entry) throw std::runtime_error("unknown workload " + cfg.workload);
    cfg.params = *entry->find("params");
    cfg.host = perfbench::read_host();

    const perfbench::CpuTicks ticks0 = perfbench::read_cpu_ticks();
    perfbench::SpanRecorder spans(cfg.trace);
    const std::string kind = entry->find("kind")->as_string();
    perfbench::Report rep = kind == "serve" ? perfbench::run_serve_mixed(cfg, spans)
                                            : perfbench::run_analytics(cfg, spans);

    JsonValue out = JsonValue::object();
    out.set("workload", cfg.workload);
    out.set("seed", cfg.seed);
    out.set("trace", cfg.trace);
    out.set("attempted", rep.attempted);
    out.set("failed", rep.failed);
    out.set("invalid", rep.invalid);
    JsonValue errors = JsonValue::array();
    for (const auto& e : rep.errors) errors.push_back(e);
    out.set("errors", std::move(errors));
    JsonValue metrics = JsonValue::object();
    for (const auto& [name, vu] : rep.metrics) {
      JsonValue m = JsonValue::object();
      m.set("value", vu.first);
      m.set("unit", vu.second);
      metrics.set(name, std::move(m));
    }
    out.set("metrics", std::move(metrics));
    rep.details.set("host_steal_pct",
                    100.0 * perfbench::steal_share(ticks0, perfbench::read_cpu_ticks()));
    out.set("details", rep.details);
    out.set("host", perfbench::host_json(cfg.host));
    if (cfg.trace) {
      JsonValue self = JsonValue::object();
      for (const auto& [layer, s] : spans.self_seconds_by_layer()) self.set(layer, s);
      out.set("self_s", std::move(self));
      if (args.count("spans-out")) {
        std::ofstream f(args["spans-out"]);
        f << spans.to_json().dump(0) << "\n";
        if (!f) throw std::runtime_error("cannot write " + args["spans-out"]);
      }
    }
    std::printf("%s\n", out.dump(0).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
}
