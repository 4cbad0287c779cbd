// The serve-mixed workload: the shipped ihtl_serve daemon on a graph file
// the benchmark wrote with save_graph_binary, driven over loopback by at
// most four serve::Client connections from this process.
//
// Phases, in order:
//   1. set-up: the daemon is launched kSetupReps times (launch until its
//      port file appears: graph load plus preprocessing); the last stays,
//      and one second of untimed closed loop warms it up.
//   2. closed loop: four connections send back to back for a share of the
//      run (capacity, ops_per_s).
//   3. open loop: requests fall due at a fixed rate; four connections take
//      them in order and each is timed from its due time, so a stall
//      charges every request queued behind it (op_ms_p50 / p90).
//   4. idle solves: single-source ppr with "cache": false, one at a time,
//      after each of the two loops (solve_s).
//   5. verification: cache hits re-sent with "cache": false.
// Phases 2 to 4 repeat in rounds. The traced run reads the daemon's
// telemetry before and after each loop, so each per-layer figure covers
// only the loop whose end-to-end metric it explains. Every
// response is checked (ok flag, value count); a seeded sample of spmv
// responses is checked against spmv_pull_serial on the benchmark's own copy
// of the graph at the response's epoch, kept by replaying the same updates
// through ihtl::apply_update; every cache hit is checked bitwise against
// the miss that filled it.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "baselines/spmv.h"
#include "core/ihtl_graph.h"
#include "core/ihtl_update.h"
#include "graph/io.h"
#include "report.h"
#include "serve/protocol.h"
#include "serve/session.h"
#include "stats.h"
#include "telemetry/histogram.h"

extern char** environ;

namespace perfbench {

namespace {

using ihtl::serve::QueryOp;
using ihtl::telemetry::JsonValue;
using ihtl::value_t;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr std::size_t kConnections = 4;
/// Seconds of untimed closed loop between set-up and the first round.
constexpr double kWarmupS = 1.0;
/// Daemon launches whose median is setup_s.
constexpr int kSetupReps = 15;
/// Share of the run's seconds in the closed loop; the open loop gets the rest.
constexpr double kClosedShare = 0.4;
/// Cache-bypassed ppr requests on the quiet daemon after each loop of a
/// round (solve_s), cycling over kIdleSources sources among the widest
/// vertices.
constexpr std::size_t kIdleSolvesPerSlot = 5;
constexpr std::size_t kIdleSources = 16;
/// The run's seconds are split into kRounds rounds. The metrics pool the
/// kKeptRounds rounds with the least CPU steal. Rounds continue past
/// kRounds, up to kMaxRounds, until kKeptRounds of them ran with at most
/// kCalmStealPct percent of CPU time stolen.
constexpr std::size_t kRounds = 12;
constexpr std::size_t kKeptRounds = 6;
constexpr std::size_t kMaxRounds = 18;
constexpr double kCalmStealPct = 2.0;

/// One ihtl_serve process. The destructor stops it (shutdown op, then
/// SIGKILL past a grace period) and always reaps it.
class Daemon {
 public:
  Daemon(const std::string& bin, const std::string& graph,
         const std::string& dir, int index)
      : port_file_(dir + "/serve-port-" + std::to_string(index)) {
    const std::string log = dir + "/serve-" + std::to_string(index) + ".log";
    ::unlink(port_file_.c_str());
    std::vector<std::string> args = {bin, "--graph", graph, "--port-file",
                                     port_file_};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    t0_ = Clock::now();
    const int rc = posix_spawn(&pid_, bin.c_str(), &fa, nullptr, argv.data(),
                               environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot launch " + bin + ": " + std::strerror(rc));
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Blocks until the port file holds a port; returns seconds since launch.
  double wait_ready(double timeout_s) {
    while (seconds_since(t0_) < timeout_s) {
      std::ifstream in(port_file_);
      std::string text;
      if (in && std::getline(in, text) && !in.eof() && !text.empty()) {
        port_ = static_cast<std::uint16_t>(std::stoul(text));
        return seconds_since(t0_);
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("ihtl_serve exited before listening");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    throw std::runtime_error("ihtl_serve not ready in time");
  }

  std::uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }

  void stop() {
    if (pid_ < 0) return;
    if (port_ != 0) {
      try {
        ihtl::serve::Client c;
        c.connect("127.0.0.1", port_);
        ihtl::serve::QueryRequest req;
        req.op = QueryOp::shutdown;
        c.roundtrip(req);
      } catch (const std::exception&) {
        // Falls through to the kill below.
      }
    }
    const auto t0 = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_since(t0) > 20.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

 private:
  std::string port_file_;
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  Clock::time_point t0_;
};

std::uint64_t hash_values(const JsonValue& values) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const JsonValue& v : values.items()) {
    const double d = v.as_number();
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    h = (h ^ bits) * 0x100000001B3ULL;
  }
  return h;
}

std::vector<value_t> to_vector(const JsonValue& values) {
  std::vector<value_t> out;
  out.reserve(values.items().size());
  for (const JsonValue& v : values.items()) out.push_back(v.as_number());
  return out;
}

bool is_read(QueryOp op) { return op != QueryOp::update; }

/// One completed (or failed) request as the client saw it.
struct Sample {
  QueryOp op = QueryOp::ppr;
  bool ok = false;
  bool traced = false;
  std::size_t round = 0;
  double latency_ms = 0.0;  ///< open loop: from the due time
  double late_ms = 0.0;     ///< open loop: send time minus due time
  double bytes = 0.0;       ///< traced only
  double parse_us = 0.0;    ///< traced only
};

/// Everything the checks need, collected across connections.
class Checks {
 public:
  Checks(std::uint64_t seed, std::size_t n) : seed_(seed), n_(n) {}

  /// Examines one response; returns an error description or "".
  std::string record(std::size_t index, const ihtl::serve::QueryRequest& req,
                     const JsonValue& resp) {
    const JsonValue* ok = resp.find("ok");
    if (!ok || !ok->is_bool() || !ok->as_bool()) {
      const JsonValue* err = resp.find("error");
      return std::string("request refused: ") +
             (err && err->is_string() ? err->as_string() : "no error text");
    }
    const JsonValue* ep = resp.find("epoch");
    if (!ep || !ep->is_number()) return "response without epoch";
    const auto epoch = static_cast<std::uint64_t>(ep->as_number());
    if (req.op == QueryOp::update) {
      std::lock_guard<std::mutex> lock(mutex_);
      updates_.push_back({epoch, req.remove});
      return "";
    }
    const JsonValue* values = resp.find("values");
    if (!values || !values->is_array() || values->items().size() != n_) {
      return "response with a wrong value count";
    }
    const JsonValue* cached = resp.find("cached");
    const bool hit = cached && cached->is_bool() && cached->as_bool();
    const std::string key =
        ihtl::serve::fingerprint(req) + "@" + std::to_string(epoch);
    const std::uint64_t h = hash_values(*values);
    const bool sampled = derive_seed(seed_, 1000 + index) % 8 == 0;
    std::lock_guard<std::mutex> lock(mutex_);
    if (hit) {
      hits_.push_back({key, h});
      if (sampled && hit_samples_.size() < 6) {
        hit_samples_.push_back({req, to_vector(*values)});
      }
    } else if (req.use_cache) {
      misses_[key].push_back(h);
    }
    if (req.op == QueryOp::spmv && sampled && spmv_samples_.size() < 24) {
      spmv_samples_.push_back({epoch, req.x_seed, to_vector(*values)});
    }
    return "";
  }

  /// Post-run checks; failures go to `rep`.
  void verify(const Graph& g0, ihtl::serve::Client& client, Report& rep,
              SpanRecorder& spans) {
    std::lock_guard<std::mutex> lock(mutex_);
    // Cache hits: bitwise equal to a miss response of the same key and
    // epoch (the values the cache was filled with).
    {
      Span s(spans, "check.cache_hits");
      for (const auto& [key, h] : hits_) {
        const auto it = misses_.find(key);
        if (it == misses_.end() ||
            std::find(it->second.begin(), it->second.end(), h) == it->second.end()) {
          rep.fail("cache hit differs bitwise from every miss of " + key);
        }
      }
    }
    // Sampled hits re-sent with the cache bypassed. Later epochs hold the
    // same edge multiset (updates re-insert what they remove) and the
    // engine's summation order depends on work stealing, so this compare
    // uses the floating-point tolerance.
    for (auto& [req, values] : hit_samples_) {
      Span s(spans, "check.recompute", spans.new_request());
      auto fresh = req;
      fresh.use_cache = false;
      ++rep.attempted;
      const JsonValue resp = client.roundtrip(fresh);
      const JsonValue* got = resp.find("values");
      if (!got || !got->is_array() || got->items().size() != values.size()) {
        rep.fail("cache-bypassed recompute failed");
        continue;
      }
      std::size_t bad = 0;
      for (std::size_t i = 0; i < values.size(); ++i) {
        const double a = got->items()[i].as_number();
        if (!(std::abs(a - values[i]) <= 1e-9 * std::max(1.0, std::abs(values[i])))) ++bad;
      }
      if (bad) rep.fail("cache hit differs from a cache-bypassed recompute");
    }
    // Updates: epochs must be distinct and contiguous from 1.
    std::sort(updates_.begin(), updates_.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (std::size_t i = 0; i < updates_.size(); ++i) {
      if (updates_[i].first != i + 1) {
        rep.fail("update epochs are not 1..U in order");
        break;
      }
    }
    // spmv samples against the serial pull on the replayed graph.
    Span s(spans, "check.spmv");
    std::sort(spmv_samples_.begin(), spmv_samples_.end(),
              [](const auto& a, const auto& b) { return a.epoch < b.epoch; });
    Graph g = g0;
    std::size_t applied = 0;
    for (const auto& sample : spmv_samples_) {
      while (applied < sample.epoch && applied < updates_.size()) {
        ihtl::UpdateBatch batch;
        batch.remove = updates_[applied].second;
        batch.insert = updates_[applied].second;
        g = ihtl::apply_update(g, batch);
        ++applied;
      }
      std::vector<value_t> x(g.num_vertices()), y(g.num_vertices());
      for (vid_t v = 0; v < g.num_vertices(); ++v) {
        x[v] = ihtl::serve::spmv_input_value(sample.x_seed, v);
      }
      ihtl::spmv_pull_serial<ihtl::PlusMonoid>(g, x, y);
      std::size_t bad = 0;
      for (vid_t v = 0; v < g.num_vertices(); ++v) {
        if (!(std::abs(sample.values[v] - y[v]) <= 1e-9 * std::max(1.0, std::abs(y[v])))) ++bad;
      }
      if (bad) {
        rep.fail("spmv x_seed " + std::to_string(sample.x_seed) + " at epoch " +
                 std::to_string(sample.epoch) + ": " + std::to_string(bad) +
                 " value(s) differ from spmv_pull_serial");
      }
    }
    rep.details.set("checked_spmv", static_cast<std::uint64_t>(spmv_samples_.size()));
    rep.details.set("checked_cache_hits", static_cast<std::uint64_t>(hits_.size()));
    rep.details.set("updates", static_cast<std::uint64_t>(updates_.size()));
  }

 private:
  struct SpmvSample {
    std::uint64_t epoch;
    std::uint64_t x_seed;
    std::vector<value_t> values;
  };
  const std::uint64_t seed_;
  const std::size_t n_;
  std::mutex mutex_;
  std::map<std::string, std::vector<std::uint64_t>> misses_;
  std::vector<std::pair<std::string, std::uint64_t>> hits_;
  std::vector<std::pair<ihtl::serve::QueryRequest, std::vector<value_t>>> hit_samples_;
  std::vector<SpmvSample> spmv_samples_;
  std::vector<std::pair<std::uint64_t, std::vector<Edge>>> updates_;
};

/// What the connection threads share: the checks, the span recorder, and
/// the report their failures go to.
struct Traffic {
  Checks& checks;
  SpanRecorder& spans;
  Report& rep;
  std::mutex rep_mutex;  ///< guards rep while connections run

  void fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(rep_mutex);
    rep.fail(what);
  }
};

/// Sends one request, checks it, and fills the sample's outcome fields. Its
/// latency runs from `start` until the response arrives, so the checks and
/// the traced run's parse probe after it are not counted. `traced` wraps it
/// in spans and measures the response's size and the client's parse time
/// of it.
void send(ihtl::serve::Client& client, const ServeOp& op, std::size_t index,
          bool traced, Clock::time_point start, Traffic& traffic, Sample& out) {
  SpanRecorder& spans = traffic.spans;
  const auto req = to_request(op);
  out.op = op.op;
  out.traced = traced;
  std::optional<Span> root;
  if (traced) root.emplace(spans, "loadgen.request", spans.new_request());
  std::string error;
  try {
    JsonValue resp;
    {
      std::optional<Span> s;
      if (traced) s.emplace(spans, "serve.roundtrip");
      resp = client.roundtrip(req);
    }
    out.latency_ms = seconds_since(start) * 1e3;
    {
      std::optional<Span> s;
      if (traced) s.emplace(spans, "check.response");
      error = traffic.checks.record(index, req, resp);
    }
    // One traced request in four also measures the response's size and the
    // client's own parse time of it (a second parse of the same text).
    if (traced && index % 4 == 0) {
      Span s(spans, "loadgen.parse_probe");
      const std::string text = resp.dump(0);
      const auto t0 = Clock::now();
      const JsonValue again = JsonValue::parse(text);
      out.parse_us = seconds_since(t0) * 1e6;
      out.bytes = static_cast<double>(text.size());
    }
  } catch (const std::exception& e) {
    error = std::string("transport: ") + e.what();
  }
  out.ok = error.empty();
  if (!out.ok) traffic.fail(error);
}

JsonValue stats(ihtl::serve::Client& client) {
  ihtl::serve::QueryRequest req;
  req.op = QueryOp::stats;
  const JsonValue resp = client.roundtrip(req);
  const JsonValue* s = resp.find("stats");
  if (!s) throw std::runtime_error("stats op returned no stats");
  return *s;
}

/// Counter or gauge `name` of a `stats` snapshot; 0 when absent.
double stat(const JsonValue& st, const std::string& name) {
  for (const char* kind : {"counters", "gauges"}) {
    const JsonValue* group = st.find(kind);
    const JsonValue* v = group ? group->find(name) : nullptr;
    if (v && v->is_number()) return v->as_number();
  }
  return 0.0;
}

/// Buckets of the daemon's per-(op, phase) latency histograms
/// (telemetry::LatencyHistogram: bucket i holds [2^(i-1), 2^i) ns).
constexpr std::size_t kBuckets = ihtl::telemetry::LatencyHistogram::num_buckets();

/// The daemon's cumulative telemetry at one instant: the `stats` op's
/// counters and gauges, and the per-(op, phase) latency histograms of the
/// `metrics` op's exposition. The difference of two snapshots is what
/// happened between them; that is how each loop's figures are read.
struct Snapshot {
  JsonValue stats;
  /// "<op>.<phase>" -> cumulative sample count up to each bucket.
  std::map<std::string, std::vector<double>> cumulative;
};

std::string label(const std::string& line, const std::string& key) {
  const auto at = line.find(key + "=\"");
  if (at == std::string::npos) return "";
  const auto from = at + key.size() + 2;
  return line.substr(from, line.find('"', from) - from);
}

Snapshot snapshot(ihtl::serve::Client& client) {
  Snapshot snap;
  snap.stats = stats(client);
  ihtl::serve::QueryRequest req;
  req.op = QueryOp::metrics;
  const JsonValue resp = client.roundtrip(req);
  const JsonValue* text = resp.find("metrics");
  if (!text || !text->is_string()) throw std::runtime_error("metrics op returned no text");
  // Lines: ihtl_request_phase_latency_us_bucket{op="..",phase="..",le="<us>"} <count>.
  // Empty leading buckets and those above the top occupied one are left
  // out; a missing bucket carries the cumulative count below it.
  const std::string series = "ihtl_request_phase_latency_us_bucket{";
  std::map<std::string, std::map<std::size_t, double>> seen;
  std::istringstream in(text->as_string());
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(series, 0) != 0) continue;
    const std::string le = label(line, "le");
    if (le.empty() || le == "+Inf") continue;
    const auto bucket = static_cast<std::size_t>(std::lround(std::log2(std::stod(le) * 1e3)));
    if (bucket >= kBuckets) continue;
    seen[label(line, "op") + "." + label(line, "phase")][bucket] =
        std::stod(line.substr(line.rfind(' ') + 1));
  }
  for (const auto& [key, points] : seen) {
    auto& cum = snap.cumulative[key];
    cum.assign(kBuckets, 0.0);
    double running = 0.0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const auto it = points.find(i);
      if (it != points.end()) running = it->second;
      cum[i] = running;
    }
  }
  return snap;
}

/// What the daemon did between two snapshots, summed over kept rounds:
/// counter and gauge increases, and per-bucket sample counts.
struct PhaseDelta {
  std::map<std::string, double> stats;
  std::map<std::string, std::vector<double>> buckets;

  void add(const Snapshot& from, const Snapshot& to, const std::vector<std::string>& names) {
    for (const auto& name : names) stats[name] += stat(to.stats, name) - stat(from.stats, name);
    for (const auto& [key, cum] : to.cumulative) {
      const auto before = from.cumulative.find(key);
      auto& counts = buckets[key];
      counts.resize(kBuckets, 0.0);
      for (std::size_t i = 0; i < kBuckets; ++i) {
        const auto at = [&](const std::vector<double>& c) {
          return c[i] - (i ? c[i - 1] : 0.0);
        };
        counts[i] += at(cum) - (before == from.cumulative.end() ? 0.0 : at(before->second));
      }
    }
  }

  /// Median of histogram `key` as LatencyHistogram::percentile_us estimates
  /// it: the geometric midpoint of the bucket holding the median sample.
  double p50_us(const std::string& key) const {
    const auto it = buckets.find(key);
    if (it == buckets.end()) return 0.0;
    double total = 0.0;
    for (double c : it->second) total += c;
    if (total <= 0.0) return 0.0;
    const double rank = std::floor(0.5 * total);
    double seen = 0.0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += it->second[i];
      if (seen <= rank) continue;
      return i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1) * std::sqrt(2.0) * 1e-3;
    }
    return 0.0;
  }
};

double span_avg_ms(const JsonValue& st, const std::string& path) {
  const JsonValue* s = st.find("spans");
  const JsonValue* p = s ? s->find(path) : nullptr;
  const JsonValue* avg = p ? p->find("avg_s") : nullptr;
  return avg && avg->is_number() ? avg->as_number() * 1e3 : 0.0;
}

std::vector<double> latencies(const std::vector<Sample>& samples, bool reads,
                              std::optional<bool> traced = std::nullopt) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (is_read(s.op) != reads) continue;
    if (traced && s.traced != *traced) continue;
    // A failed or refused request misses any latency limit.
    out.push_back(s.ok ? s.latency_ms : std::numeric_limits<double>::infinity());
  }
  return out;
}

}  // namespace

Report run_serve_mixed(const RunConfig& cfg, SpanRecorder& spans) {
  Report rep;
  const double rate = cfg.param("open_loop_rate");
  const double late_bound_ms = cfg.param("late_ms_p90_bound");
  const ServeMix mix;

  const Graph g = serve_graph(cfg.seed, cfg.scale);
  const std::string graph_path = cfg.work_dir + "/serve-graph.ihtlgr";
  ihtl::save_graph_binary(g, graph_path);
  Checks checks(cfg.seed, g.num_vertices());
  Traffic traffic{checks, spans, rep, {}};

  // --- set-up: launch until the port file appears ------------------------
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  for (int r = 0; r < kSetupReps; ++r) {
    daemon.reset();
    Span s(spans, "setup", spans.new_request());
    Span launch(spans, "serve.launch");
    daemon = std::make_unique<Daemon>(cfg.serve_bin, graph_path, cfg.work_dir, r);
    setup_s.push_back(daemon->wait_ready(60.0));
    ++rep.attempted;
  }
  const std::uint16_t port = daemon->port();
  ihtl::serve::Client control;
  control.connect("127.0.0.1", port);

  // --- rounds of closed loop, open loop and idle solves ----------------------
  // Interleaving the phases in rounds spreads a burst of load from elsewhere
  // on the host over every metric's samples instead of one phase's. The
  // four connections persist across rounds; each connection's closed-loop
  // stream and the open-loop schedule continue where the last round ended.
  // Latency here is CPU-bound on every thread of a request's path, so a
  // neighbour's load shows up at once: when fewer than kKeptRounds of the
  // first kRounds rounds ran calm, rounds continue, up to kMaxRounds, so
  // the kept rounds come from a calm stretch when one occurs.
  const double closed_s = cfg.seconds * kClosedShare / static_cast<double>(kRounds);
  const double open_s = cfg.seconds * (1.0 - kClosedShare) / static_cast<double>(kRounds);
  const auto per_round = static_cast<std::size_t>(std::max(1.0, std::floor(rate * open_s)));
  const std::size_t total = per_round * kMaxRounds;
  const auto open_stream = serve_stream(g, derive_seed(cfg.seed, 20), total, mix);
  const auto idle_sources =
      pick_sources(g, derive_seed(cfg.seed, 21), std::min<std::size_t>(kIdleSources, g.num_vertices()));
  std::vector<ihtl::serve::Client> clients(kConnections);
  std::vector<std::vector<ServeOp>> closed_streams;
  for (std::size_t c = 0; c < kConnections; ++c) {
    clients[c].connect("127.0.0.1", port);
    closed_streams.push_back(serve_stream(g, derive_seed(cfg.seed, 10 + c), 4096, mix));
  }
  std::vector<std::vector<Sample>> closed(kConnections);
  std::vector<Sample> open(total);
  std::atomic<std::size_t> closed_index{0};
  std::vector<double> closed_elapsed(kMaxRounds), steal(kMaxRounds);
  std::vector<std::vector<double>> solve_s(kMaxRounds);
  // Traced run: the daemon's telemetry at each round's start, after its
  // closed loop, before its open loop and after it.
  struct RoundSnapshots {
    Snapshot start, closed, idle, open;
  };
  // Idle solves: one cache-bypassed ppr at a time on a quiet daemon, after
  // each loop of a round. The sources are among the widest vertices, so
  // every solve reaches most of the graph and its response is as large as
  // the graph: a Zipf draw of a source that reaches little would answer
  // with a mostly-zero, much shorter response, and solve_s would vary with
  // the seed's draw.
  const auto idle_solves = [&](std::size_t r) {
    for (std::size_t i = 0; i < kIdleSolvesPerSlot; ++i) {
      const std::size_t k = solve_s[r].size() + r * 2 * kIdleSolvesPerSlot;
      const ServeOp op{QueryOp::ppr, idle_sources[k % idle_sources.size()], 0, {}};
      auto req = to_request(op);
      req.use_cache = false;
      Span s(spans, "loadgen.idle_solve", spans.new_request());
      const auto t0 = Clock::now();
      ++rep.attempted;
      try {
        const JsonValue resp = control.roundtrip(req);
        solve_s[r].push_back(seconds_since(t0));
        const std::string err = checks.record(200000 + k, req, resp);
        if (!err.empty()) rep.fail(err);
      } catch (const std::exception& e) {
        solve_s[r].push_back(seconds_since(t0));
        rep.fail(std::string("transport: ") + e.what());
      }
    }
  };
  // Closed loop: every connection sends back to back for `seconds`; the
  // samples belong to round `r`. Returns the loop's duration.
  const auto closed_loop = [&](double seconds, std::size_t r) {
    std::vector<std::thread> threads;
    const auto t0 = Clock::now();
    for (std::size_t c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        const auto& stream = closed_streams[c];
        while (seconds_since(t0) < seconds) {
          const std::size_t i = closed[c].size();
          Sample smp;
          smp.round = r;
          // Traced run: alternate span-wrapped and bare requests, so the
          // tracing cost is measured on the same traffic.
          const bool traced = cfg.trace && i % 2 == 0;
          send(clients[c], stream[i % stream.size()], closed_index++, traced, Clock::now(),
               traffic, smp);
          closed[c].push_back(smp);
        }
      });
    }
    for (auto& t : threads) t.join();
    return seconds_since(t0);
  };
  // Untimed warm-up, checked and counted like every request: a fresh
  // daemon serves its first second of requests at about half speed. Its
  // samples belong to no round (round kMaxRounds), so no metric pools them.
  closed_loop(kWarmupS, kMaxRounds);
  std::vector<RoundSnapshots> snaps(cfg.trace ? kMaxRounds : 0);
  std::size_t ran = 0, calm_rounds = 0;
  for (std::size_t r = 0; r < kMaxRounds && (r < kRounds || calm_rounds < kKeptRounds); ++r) {
    const CpuTicks ticks0 = read_cpu_ticks();
    if (cfg.trace) snaps[r].start = snapshot(control);
    closed_elapsed[r] = closed_loop(closed_s, r);
    if (cfg.trace) snaps[r].closed = snapshot(control);
    idle_solves(r);
    if (cfg.trace) snaps[r].idle = snapshot(control);

    // Open loop: request i falls due at i / rate; a connection takes the
    // next request as soon as it is free, so a stall delays the ones behind.
    {
      std::atomic<std::size_t> next{r * per_round};
      const std::size_t end = (r + 1) * per_round;
      std::vector<std::thread> threads;
      const auto t0 = Clock::now() + std::chrono::milliseconds(20);
      for (std::size_t c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c] {
          for (std::size_t i = next++; i < end; i = next++) {
            const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(
                                          static_cast<double>(i - r * per_round) / rate));
            std::this_thread::sleep_until(due);
            Sample& smp = open[i];
            smp.round = r;
            smp.late_ms = seconds_since(due) * 1e3;
            send(clients[c], open_stream[i], 100000 + i, cfg.trace, due, traffic, smp);
          }
        });
      }
      for (auto& t : threads) t.join();
    }
    if (cfg.trace) snaps[r].open = snapshot(control);

    idle_solves(r);
    steal[r] = steal_share(ticks0, read_cpu_ticks());
    if (steal[r] <= kCalmStealPct / 100.0) ++calm_rounds;
    ran = r + 1;
  }
  for (auto& c : clients) c.close();
  steal.resize(ran);
  open.resize(ran * per_round);
  std::vector<Sample> closed_all;
  for (auto& v : closed) closed_all.insert(closed_all.end(), v.begin(), v.end());
  rep.attempted += closed_all.size() + open.size();

  std::vector<double> late;
  for (const Sample& s : open) late.push_back(s.late_ms);
  const double late_p90 = percentile(late, 0.9);
  if (late_p90 > late_bound_ms) {
    rep.invalid = "open-loop generator ran late: p90 " + std::to_string(late_p90) +
                  " ms > bound " + std::to_string(late_bound_ms) + " ms";
  }

  checks.verify(g, control, rep, spans);
  const double daemon_hwm_mb =
      static_cast<double>(proc_status_bytes(daemon->pid(), "VmHWM")) / (1024.0 * 1024.0);
  control.close();
  daemon->stop();

  // --- metrics ----------------------------------------------------------------
  // Every metric pools the rounds during which the host stole the least CPU
  // time (see least_disturbed). Every round is checked and counted.
  const auto kept = least_disturbed(steal, kKeptRounds);
  const auto in_kept = [&](const Sample& smp) {
    return std::find(kept.begin(), kept.end(), smp.round) != kept.end();
  };
  std::vector<Sample> open_kept, closed_kept;
  std::copy_if(open.begin(), open.end(), std::back_inserter(open_kept), in_kept);
  std::copy_if(closed_all.begin(), closed_all.end(), std::back_inserter(closed_kept), in_kept);
  double kept_closed_s = 0.0;
  JsonValue steal_pct = JsonValue::array(), kept_json = JsonValue::array();
  for (double v : steal) steal_pct.push_back(100.0 * v);
  JsonValue round_solve = JsonValue::array();
  for (std::size_t r = 0; r < ran; ++r) round_solve.push_back(median(solve_s[r]));
  rep.details.set("round_solve_s", std::move(round_solve));
  for (const std::size_t r : kept) {
    kept_closed_s += closed_elapsed[r];
    kept_json.push_back(static_cast<std::uint64_t>(r));
  }
  rep.details.set("rounds_run", static_cast<std::uint64_t>(ran));
  rep.details.set("round_steal_pct", std::move(steal_pct));
  rep.details.set("kept_rounds", std::move(kept_json));
  const auto reads_open = latencies(open_kept, true);
  rep.details.set("open_loop_rate", rate);
  rep.details.set("open_loop_requests", static_cast<std::uint64_t>(open.size()));
  rep.details.set("open_loop_reads", static_cast<std::uint64_t>(reads_open.size()));
  rep.details.set("closed_loop_requests", static_cast<std::uint64_t>(closed_all.size()));
  rep.details.set("late_ms_p90", late_p90);
  rep.details.set("vertices", static_cast<std::uint64_t>(g.num_vertices()));
  rep.details.set("edges", static_cast<std::uint64_t>(g.num_edges()));
  {
    const double x_bytes = static_cast<double>(g.num_vertices()) * sizeof(value_t);
    JsonValue r = JsonValue::object();
    r.set("x_bytes", x_bytes);
    r.set("xk_bytes", x_bytes * 8.0);  // the daemon's default 8 batch lanes
    r.set("l2_bytes", static_cast<std::uint64_t>(cfg.host.l2_bytes()));
    r.set("llc_bytes", static_cast<std::uint64_t>(cfg.host.llc_bytes()));
    r.set("x_over_l2", x_bytes / static_cast<double>(cfg.host.l2_bytes()));
    rep.details.set("regime", std::move(r));
  }
  if (!reportable(reads_open.size(), 0.9)) {
    rep.invalid = "too few open-loop reads for p90";
  }

  if (!cfg.trace) {
    rep.metric("setup_s", median(setup_s), "s");
    rep.metric("mem_mb", daemon_hwm_mb, "MB");
    rep.metric("ops_per_s", static_cast<double>(closed_kept.size()) / kept_closed_s, "1/s");
    rep.metric("op_ms_p50", percentile(reads_open, 0.5), "ms");
    rep.metric("op_ms_p90", percentile(reads_open, 0.9), "ms");
    std::vector<double> solves_kept;
    for (const std::size_t r : kept) {
      solves_kept.insert(solves_kept.end(), solve_s[r].begin(), solve_s[r].end());
    }
    rep.metric("solve_s", median(solves_kept), "s");
    return rep;
  }

  // Traced run: per-layer metrics. The request-phase, cache and update
  // figures cover the kept rounds' open loops (op_ms_p50 / p90); the
  // batching figures cover their closed loops (ops_per_s).
  PhaseDelta in_closed, in_open;
  for (const std::size_t r : kept) {
    in_closed.add(snaps[r].start, snaps[r].closed,
                  {"serve.batch.flushes", "serve.batch.deadline_flushes",
                   "serve.batch.lanes_flushed"});
    in_open.add(snaps[r].idle, snaps[r].open,
                {"serve.cache.hits", "serve.cache.misses", "serve.updates",
                 "serve.update_rebuilds"});
  }
  const auto share = [](double part, double whole) { return whole > 0.0 ? part / whole : 0.0; };
  for (const char* op : {"ppr", "bfs", "spmv"}) {
    for (const char* phase : {"queue", "compute", "cache", "serialize"}) {
      rep.metric(std::string("serve.") + op + "." + phase + "_us_p50",
                 in_open.p50_us(std::string(op) + "." + phase), "us");
    }
  }
  auto& closed_stats = in_closed.stats;
  auto& open_stats = in_open.stats;
  rep.metric("serve.lane_occupancy",
             share(closed_stats["serve.batch.lanes_flushed"], closed_stats["serve.batch.flushes"]),
             "ratio");
  rep.metric("serve.deadline_flush_share",
             share(closed_stats["serve.batch.deadline_flushes"],
                   closed_stats["serve.batch.flushes"]),
             "ratio");
  rep.metric("serve.cache_hit_ratio",
             share(open_stats["serve.cache.hits"],
                   open_stats["serve.cache.hits"] + open_stats["serve.cache.misses"]),
             "ratio");
  rep.metric("serve.update_rebuild_share",
             share(open_stats["serve.update_rebuilds"], open_stats["serve.updates"]), "ratio");
  rep.metric("serve.update_compute_us_p50", in_open.p50_us("update.compute"), "us");
  std::vector<double> bytes, parse_us;
  for (const auto* set : {&closed_all, &open}) {
    for (const Sample& s : *set) {
      if (s.traced && s.ok && is_read(s.op) && s.bytes > 0) {
        bytes.push_back(s.bytes);
        parse_us.push_back(s.parse_us);
      }
    }
  }
  double bytes_sum = 0.0;
  for (double b : bytes) bytes_sum += b;
  rep.metric("serve.response_bytes_mean",
             bytes.empty() ? 0.0 : bytes_sum / static_cast<double>(bytes.size()), "bytes");
  const auto updates_open = latencies(open_kept, false);
  rep.metric("serve.update_ms_p50", updates_open.empty() ? 0.0 : percentile(updates_open, 0.5),
             "ms");
  rep.metric("loadgen.late_ms_p90", late_p90, "ms");
  rep.metric("loadgen.client_parse_us_p50", parse_us.empty() ? 0.0 : percentile(parse_us, 0.5),
             "us");
  // Tracing cost: closed-loop read latency of span-wrapped requests against
  // the bare ones sent on the same connections.
  const auto traced_lat = latencies(closed_all, true, true);
  const auto bare_lat = latencies(closed_all, true, false);
  rep.metric("trace.overhead_pct",
             (percentile(traced_lat, 0.5) / percentile(bare_lat, 0.5) - 1.0) * 100.0, "%");

  // Engine layer, as the daemon's own spmv spans and gauges report it at
  // the end of the last round.
  const JsonValue& last_stats = snaps[ran - 1].open.stats;
  rep.metric("core.push_ms", span_avg_ms(last_stats, "spmv/push"), "ms");
  rep.metric("core.merge_ms", span_avg_ms(last_stats, "spmv/merge"), "ms");
  rep.metric("core.reset_ms", span_avg_ms(last_stats, "spmv/reset"), "ms");
  rep.metric("core.pull_ms", span_avg_ms(last_stats, "spmv/pull"), "ms");
  rep.metric("core.single_owner_blocks", stat(last_stats, "spmv.blocks_single_owner"),
             "count");
  rep.metric("core.sparse_binned",
             stat(last_stats, "spmv.push_mode.binned_sparse") > 0 ? 1.0 : 0.0, "count");
  // Preprocessing: the same build_ihtl_graph call the daemon makes at
  // start-up, on the benchmark's copy of the graph.
  {
    std::vector<double> build_s;
    ihtl::IhtlGraph ig;
    for (int r = 0; r < kSetupReps; ++r) {
      Span s(spans, "core.build", spans.new_request());
      const auto t0 = Clock::now();
      ig = ihtl::build_ihtl_graph(g);
      build_s.push_back(seconds_since(t0));
    }
    rep.metric("core.build_s", median(build_s), "s");
    rep.metric("core.hubs", ig.num_hubs(), "count");
    rep.metric("core.blocks", static_cast<double>(ig.blocks().size()), "count");
    rep.metric("core.flipped_edge_share",
               g.num_edges() ? static_cast<double>(ig.flipped_edges()) /
                                   static_cast<double>(g.num_edges())
                             : 0.0,
               "ratio");
    rep.metric("core.x_over_l2",
               static_cast<double>(g.num_vertices()) * sizeof(value_t) /
                   static_cast<double>(cfg.host.l2_bytes()),
               "ratio");
  }
  return rep;
}

}  // namespace perfbench
