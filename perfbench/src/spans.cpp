#include "spans.h"

#include <chrono>
#include <stdexcept>

namespace perfbench {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Open span ids of the calling thread, innermost last.
thread_local std::vector<std::uint64_t> t_open;

/// Layer of a span name: the part before the first '.'.
std::string layer_of(std::string_view name) {
  return std::string(name.substr(0, name.find('.')));
}

}  // namespace

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_ns_(steady_ns()) {}

std::uint64_t SpanRecorder::now_ns() const { return steady_ns() - origin_ns_; }

std::uint64_t SpanRecorder::new_request() {
  std::lock_guard<std::mutex> lock(mutex_);
  return ++next_request_;
}

std::uint64_t SpanRecorder::begin(std::string_view name,
                                  std::uint64_t request) {
  if (!enabled_) return 0;
  const std::uint64_t parent = t_open.empty() ? 0 : t_open.back();
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (request == 0 && parent != 0) request = spans_[parent - 1].request;
    spans_.push_back(SpanRecord{parent, request, std::string(name), now_ns(), 0});
    id = spans_.size();
  }
  t_open.push_back(id);
  return id;
}

void SpanRecorder::end(std::uint64_t id) {
  if (!enabled_ || id == 0) return;
  if (t_open.empty() || t_open.back() != id) {
    throw std::logic_error("span closed out of order");
  }
  t_open.pop_back();
  const std::uint64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end_ns = t;
}

std::vector<SpanRecord> SpanRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, double> SpanRecorder::self_seconds_by_layer() const {
  const auto spans = snapshot();
  // Children run on their parent's thread, nested inside it, so the part
  // of the parent's interval they cover is the sum of their durations.
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.end_ns < s.start_ns) continue;  // still open: not counted
    self[i] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    if (s.parent != 0) {
      self[s.parent - 1] -= static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[layer_of(spans[i].name)] += self[i] < 0.0 ? 0.0 : self[i];
  }
  return out;
}

ihtl::telemetry::JsonValue SpanRecorder::to_json() const {
  using ihtl::telemetry::JsonValue;
  const auto spans = snapshot();
  JsonValue arr = JsonValue::array();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    JsonValue s = JsonValue::object();
    s.set("id", static_cast<std::uint64_t>(i + 1));
    s.set("parent", spans[i].parent);
    s.set("request", spans[i].request);
    s.set("name", spans[i].name);
    s.set("start_ns", spans[i].start_ns);
    s.set("end_ns", spans[i].end_ns);
    arr.push_back(std::move(s));
  }
  JsonValue by_layer = JsonValue::object();
  for (const auto& [k, v] : self_seconds_by_layer()) by_layer.set(k, v);
  JsonValue out = JsonValue::object();
  out.set("spans", std::move(arr));
  out.set("self_s", std::move(by_layer));
  return out;
}

}  // namespace perfbench
