// The benchmark's own span recorder for the traced run.
//
// Every call the benchmark makes into a layer of the system is wrapped in a
// Span: name, start, end, parent span and request id. Spans of one request
// share its id (a child inherits its parent's). Spans stay in memory and
// are written out once, when the run ends. A layer is the span name up to
// the first '.', and its self time is the sum over its spans of the span's
// duration minus the time its child spans cover.
//
// A disabled recorder (the untraced run) makes Span a no-op: no clock read,
// no lock, no allocation.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/json.h"

namespace perfbench {

struct SpanRecord {
  std::uint64_t parent = 0;   ///< id of the enclosing span (0 = root)
  std::uint64_t request = 0;  ///< request id shared by a request's spans
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;  ///< 0 while open
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread; its parent is the innermost span
  /// this thread has open. `request` 0 inherits the parent's request id.
  /// Returns the span id (0 when disabled).
  std::uint64_t begin(std::string_view name, std::uint64_t request = 0);
  /// Closes span `id`, which must be the innermost open span of this thread.
  void end(std::uint64_t id);

  /// A fresh request id.
  std::uint64_t new_request();

  /// Nanoseconds since the recorder was created (steady clock).
  std::uint64_t now_ns() const;

  std::vector<SpanRecord> snapshot() const;

  /// Self seconds per layer (span name up to the first '.').
  std::map<std::string, double> self_seconds_by_layer() const;

  /// {"spans": [{id, parent, request, name, start_ns, end_ns}...],
  ///  "self_s": {layer: s}}
  ihtl::telemetry::JsonValue to_json() const;

 private:

  bool enabled_;
  std::uint64_t origin_ns_ = 0;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  ///< guarded by mutex_; id = index + 1
  std::uint64_t next_request_ = 0;  ///< guarded by mutex_
};

/// RAII span; a no-op on a disabled recorder.
class Span {
 public:
  Span(SpanRecorder& rec, std::string_view name, std::uint64_t request = 0)
      : rec_(rec), id_(rec.enabled() ? rec.begin(name, request) : 0) {}
  ~Span() {
    if (id_) rec_.end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder& rec_;
  std::uint64_t id_;
};

}  // namespace perfbench
