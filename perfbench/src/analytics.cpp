// The analytics workloads: scalar PageRank on a social graph
// (pagerank-social) and 8-lane personalized PageRank on a web graph
// (ppr8-web). Both drive the library only through its public entry points:
// build_ihtl_graph, IhtlEngine::spmv / spmv_batch, pagerank_ihtl /
// pagerank_personalized_batch, the src/baselines kernels, the cache
// simulator's trace_* functions and ThreadPool::export_metrics.
//
// Untraced run (end-to-end metrics): rounds of set-up (build + engine +
// cold SpMV), timed SpMVs and a solve to the tolerance, with a sampler
// tracking resident memory throughout. The SpMV metrics pool the middle
// half of the rounds (at least 100 SpMVs, the p90 rule of stats.h).
// Traced run (per-layer metrics): the same set-up and SpMV loop with every
// call wrapped in a span, plus engine phase times, scheduling counters, the
// T=1 reference, the pull baselines, simulated misses and the app's own
// per-iteration work. Both runs check every round's results against the
// serial references.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "apps/pagerank.h"
#include "baselines/spmv.h"
#include "cachesim/trace_spmv.h"
#include "core/ihtl_graph.h"
#include "core/ihtl_spmv.h"
#include "parallel/thread_pool.h"
#include "report.h"
#include "serve/session.h"
#include "stats.h"
#include "telemetry/metrics.h"

namespace perfbench {

namespace {

/// Rounds of set-up, timed SpMVs and one solve per run. Each round builds
/// its graph and engine anew, so the run samples many placements of them in
/// memory as well as many stretches of the host's load.
constexpr std::size_t kRounds = 12;
/// Share of the run's seconds spent in the timed SpMV loops (the rest goes
/// to set-ups and solves).
constexpr double kSpmvShare = 0.5;
/// Iteration cap of every solve; the tolerance stops them well before.
constexpr unsigned kMaxIterations = 200;
/// At least 20 timed SpMVs per round, so the middle half of the rounds
/// holds the 100 samples p90 needs.
constexpr std::size_t kMinSpmvsPerRound = 20;
/// Untimed SpMVs before the first round's timed ones.
constexpr double kWarmupS = 1.5;

using ihtl::IhtlEngine;
using ihtl::IhtlGraph;
using ihtl::PlusMonoid;
using ihtl::ThreadPool;
using ihtl::value_t;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Tracks the process's peak resident memory above a baseline by polling
/// VmRSS, so the figure covers set-up and solve but nothing allocated
/// before it starts.
class PeakRss {
 public:
  PeakRss() : base_(proc_status_bytes(0, "VmRSS")), peak_(base_) {
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_acquire)) {
        sample();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }
  ~PeakRss() { stop(); }
  PeakRss(const PeakRss&) = delete;
  PeakRss& operator=(const PeakRss&) = delete;

  void stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
    sample();
  }
  double growth_mb() const {
    return static_cast<double>(peak_.load() - base_) / (1024.0 * 1024.0);
  }

 private:
  void sample() {
    const std::uint64_t now = proc_status_bytes(0, "VmRSS");
    std::uint64_t cur = peak_.load();
    while (now > cur && !peak_.compare_exchange_weak(cur, now)) {
    }
  }

  const std::uint64_t base_;
  std::atomic<std::uint64_t> peak_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Engine plus the vectors one SpMV reads and writes, in new-ID space. The
/// vectors outlive the rounds; each round rebuilds the graph and engine.
struct EngineState {
  std::unique_ptr<IhtlGraph> ig;
  std::unique_ptr<IhtlEngine<PlusMonoid>> engine;
  std::vector<value_t> x, y;
  std::size_t k = 1;

  void spmv() {
    if (k == 1) {
      engine->spmv(x, y);
    } else {
      engine->spmv_batch(x, y, k);
    }
  }
};

/// Lane l of vertex v (original ID) of the benchmark's dense input.
value_t input_value(std::uint64_t seed, vid_t v, std::size_t lane) {
  return ihtl::serve::spmv_input_value(derive_seed(seed, 100 + lane), v);
}

std::vector<value_t> input_original(const Graph& g, std::uint64_t seed,
                                    std::size_t k) {
  std::vector<value_t> x(static_cast<std::size_t>(g.num_vertices()) * k);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    for (std::size_t l = 0; l < k; ++l) x[v * k + l] = input_value(seed, v, l);
  }
  return x;
}

struct SetupTimes {
  double setup_s = 0.0;  ///< build + engine + cold SpMV
  double build_s = 0.0;  ///< the core layer's share
};

/// The set-up a user pays before the first answer: build_ihtl_graph, engine
/// construction and the cold first SpMV, each timed. Moving the input `xo`
/// (original IDs) into new-ID order sits between the last two and is the
/// benchmark's own work, so it is not timed.
SetupTimes set_up(EngineState& st, ThreadPool& pool, const Graph& g,
                  const std::vector<value_t>& xo, SpanRecorder& spans) {
  st.engine.reset();
  st.ig.reset();
  SetupTimes t;
  {
    Span s(spans, "core.build");
    const auto t0 = Clock::now();
    st.ig = std::make_unique<IhtlGraph>(ihtl::build_ihtl_graph(g));
    t.build_s = seconds_since(t0);
  }
  {
    Span s(spans, "core.engine");
    const auto t0 = Clock::now();
    st.engine = std::make_unique<IhtlEngine<PlusMonoid>>(*st.ig, pool);
    t.setup_s = t.build_s + seconds_since(t0);
  }
  const auto& o2n = st.ig->old_to_new();
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    for (std::size_t l = 0; l < st.k; ++l) {
      st.x[static_cast<std::size_t>(o2n[v]) * st.k + l] = xo[v * st.k + l];
    }
  }
  Span s(spans, "core.spmv");
  const auto t0 = Clock::now();
  st.spmv();
  t.setup_s += seconds_since(t0);
  return t;
}

/// spmv_pull_serial (or its batched form) of `xo`, in original IDs.
std::vector<value_t> serial_spmv(const Graph& g, const std::vector<value_t>& xo,
                                 std::size_t k) {
  std::vector<value_t> ref(xo.size());
  if (k == 1) {
    ihtl::spmv_pull_serial<PlusMonoid>(g, xo, ref);
  } else {
    ihtl::spmv_pull_serial_batch<PlusMonoid>(g, xo, ref, k);
  }
  return ref;
}

/// Compares the engine's last output with the serial reference `ref`
/// (original IDs). One checked operation.
void check_spmv(const EngineState& st, const std::vector<value_t>& ref,
                Report& rep, SpanRecorder& spans) {
  Span s(spans, "check.spmv");
  ++rep.attempted;
  const std::size_t k = st.k;
  const auto& o2n = st.ig->old_to_new();
  std::size_t bad = 0;
  for (std::size_t v = 0; v < o2n.size(); ++v) {
    for (std::size_t l = 0; l < k; ++l) {
      const value_t got = st.y[static_cast<std::size_t>(o2n[v]) * k + l];
      const value_t want = ref[v * k + l];
      if (!(std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want)))) ++bad;
    }
  }
  if (bad) {
    rep.fail("spmv: " + std::to_string(bad) +
             " value(s) differ from spmv_pull_serial");
  }
}

/// Serial personalized PageRank of one source through spmv_pull_serial,
/// with the batch's restart and scaling, for exactly `iterations` rounds.
std::vector<value_t> serial_ppr(const Graph& g, vid_t source, double damping,
                                unsigned iterations) {
  const vid_t n = g.num_vertices();
  std::vector<value_t> pr(n, 0.0), x(n), y(n);
  pr[source] = 1.0;
  for (unsigned it = 0; it < iterations; ++it) {
    for (vid_t v = 0; v < n; ++v) {
      const auto d = g.out_degree(v);
      x[v] = d ? pr[v] * (damping / static_cast<value_t>(d)) : 0.0;
    }
    ihtl::spmv_pull_serial<PlusMonoid>(g, x, y);
    for (vid_t v = 0; v < n; ++v) pr[v] = (v == source ? 1.0 - damping : 0.0) + y[v];
  }
  return pr;
}

struct Workload {
  std::size_t k = 1;
  std::vector<vid_t> sources;  ///< ppr lanes (k > 1)
  ihtl::PageRankOptions opt;
};

ihtl::PageRankResult solve(ThreadPool& pool, const Graph& g,
                           const IhtlGraph& ig, const Workload& w) {
  if (w.k == 1) return ihtl::pagerank_ihtl(pool, g, ig, w.opt);
  return ihtl::pagerank_personalized_batch(pool, g, ig, w.sources, w.opt);
}

/// A scalar PageRank against a serial one (pull kernel on a one-thread
/// pool) at the same tolerance: same stopping rule, so within one iteration
/// of the engine. One checked operation.
void check_pagerank(const ihtl::PageRankResult& got, const ihtl::PageRankResult& ref,
                    double tolerance, Report& rep, SpanRecorder& spans) {
  Span s(spans, "check.solve");
  ++rep.attempted;
  double l1 = 0.0;
  for (std::size_t v = 0; v < ref.ranks.size(); ++v) {
    l1 += std::abs(got.ranks[v] - ref.ranks[v]);
  }
  const auto di = static_cast<long>(got.iterations_run) -
                  static_cast<long>(ref.iterations_run);
  if (std::abs(di) > 1 || !(l1 <= 2.0 * tolerance)) {
    rep.fail("pagerank: L1 " + std::to_string(l1) + " after " +
             std::to_string(got.iterations_run) + " iterations vs serial " +
             std::to_string(ref.iterations_run));
  }
}

/// One lane of each round's 8-lane PPR against a serial run of the same
/// iteration count (the batch's stopping rule is over all lanes, so the
/// count is taken from it). One checked operation per round.
void check_ppr_lanes(const Graph& g, vid_t source, double damping,
                     const std::vector<std::vector<value_t>>& lanes,
                     const std::vector<unsigned>& iterations, Report& rep,
                     SpanRecorder& spans) {
  Span s(spans, "check.solve", spans.new_request());
  std::map<unsigned, std::vector<value_t>> refs;  // one per distinct count
  for (std::size_t r = 0; r < lanes.size(); ++r) {
    ++rep.attempted;
    auto it = refs.find(iterations[r]);
    if (it == refs.end()) {
      it = refs.emplace(iterations[r], serial_ppr(g, source, damping, iterations[r])).first;
    }
    double l1 = 0.0;
    for (vid_t v = 0; v < g.num_vertices(); ++v) l1 += std::abs(lanes[r][v] - it->second[v]);
    if (!(l1 <= 1e-9)) {
      rep.fail("ppr round " + std::to_string(r) + ": L1 " + std::to_string(l1) +
               " from the serial reference");
    }
  }
}

template <typename F>
double median_ms(int reps, F&& fn) {
  fn();  // warm-up
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(seconds_since(t0) * 1e3);
  }
  return median(ms);
}

void regime_details(const RunConfig& cfg, const Graph& g, const IhtlGraph& ig,
                    std::size_t k, Report& rep) {
  using ihtl::telemetry::JsonValue;
  const double x_bytes = static_cast<double>(g.num_vertices()) * sizeof(value_t);
  JsonValue r = JsonValue::object();
  r.set("vertices", static_cast<std::uint64_t>(g.num_vertices()));
  r.set("edges", static_cast<std::uint64_t>(g.num_edges()));
  r.set("lanes", static_cast<std::uint64_t>(k));
  r.set("x_bytes", x_bytes);
  r.set("xk_bytes", x_bytes * static_cast<double>(k));
  r.set("l2_bytes", static_cast<std::uint64_t>(cfg.host.l2_bytes()));
  r.set("llc_bytes", static_cast<std::uint64_t>(cfg.host.llc_bytes()));
  r.set("x_over_l2", x_bytes / static_cast<double>(cfg.host.l2_bytes()));
  r.set("xk_over_llc",
        x_bytes * static_cast<double>(k) / static_cast<double>(cfg.host.llc_bytes()));
  r.set("hubs", static_cast<std::uint64_t>(ig.num_hubs()));
  r.set("blocks", static_cast<std::uint64_t>(ig.blocks().size()));
  r.set("flipped_edge_share", g.num_edges() ? static_cast<double>(ig.flipped_edges()) /
                                                  static_cast<double>(g.num_edges())
                                            : 0.0);
  rep.details.set("regime", std::move(r));
}

/// The traced run's extra per-layer measurements on the final engine: the
/// T=1 reference, the pull baselines against the scalar iHTL SpMV, and the
/// simulated misses. `t4_ms` is the bare T=4 SpMV median of the run.
void layer_extras(const RunConfig& cfg, const Graph& g, EngineState& st,
                  ThreadPool& pool, double t4_ms, Report& rep, SpanRecorder& spans) {
  {
    Span s(spans, "parallel.t1_spmv", spans.new_request());
    ThreadPool one(1);
    IhtlEngine<PlusMonoid> e1(*st.ig, one);
    std::vector<value_t> y1(st.y.size());
    const double t1_ms = median_ms(5, [&] {
      if (st.k == 1) {
        e1.spmv(st.x, y1);
      } else {
        e1.spmv_batch(st.x, y1, st.k);
      }
    });
    rep.metric("parallel.speedup_t4", t1_ms / t4_ms, "ratio");
  }

  // The paper's Table 5 / Fig 7 comparison: scalar SpMVs, same graph, T=4.
  const auto xo = input_original(g, cfg.seed, 1);
  std::vector<value_t> yo(xo.size()), xs(xo.size()), ys(xo.size());
  const auto& o2n = st.ig->old_to_new();
  for (vid_t v = 0; v < g.num_vertices(); ++v) xs[o2n[v]] = xo[v];
  double ihtl_ms = 0.0, pull_ms = 0.0;
  {
    Span s(spans, "core.spmv_scalar", spans.new_request());
    ihtl_ms = median_ms(7, [&] { st.engine->spmv(xs, ys); });
  }
  {
    Span s(spans, "baselines.pull", spans.new_request());
    pull_ms = median_ms(7, [&] { ihtl::spmv_pull<PlusMonoid>(pool, g, xo, yo); });
  }
  rep.metric("baselines.pull_ms", pull_ms, "ms");
  rep.metric("baselines.ihtl_over_pull", ihtl_ms / pull_ms, "ratio");
  {
    Span s(spans, "baselines.pull_edge_balanced", spans.new_request());
    rep.metric("baselines.pull_edge_balanced_ms", median_ms(7, [&] {
                 ihtl::spmv_pull_edge_balanced<PlusMonoid>(pool, g, xo, yo);
               }),
               "ms");
  }
  {
    // The library's default segment: 256 KiB of source values.
    const ihtl::SegmentedPull seg(g, (256u << 10) / sizeof(value_t));
    Span s(spans, "baselines.segmented_pull", spans.new_request());
    rep.metric("baselines.segmented_pull_ms",
               median_ms(7, [&] { seg.run<PlusMonoid>(pool, xo, yo); }), "ms");
  }

  // Simulated misses on this host's cache geometry (the VM has no PMU).
  const double m = static_cast<double>(std::max<std::uint64_t>(g.num_edges(), 1));
  ihtl::TraceCounters ihtl_c, pull_c;
  {
    Span s(spans, "cachesim.ihtl", spans.new_request());
    auto caches = host_cache_hierarchy(cfg.host);
    ihtl_c = ihtl::trace_ihtl_spmv(g, *st.ig, caches);
  }
  {
    Span s(spans, "cachesim.pull", spans.new_request());
    auto caches = host_cache_hierarchy(cfg.host);
    pull_c = ihtl::trace_pull_spmv(g, caches);
  }
  rep.metric("cachesim.ihtl.l2_miss_per_edge", static_cast<double>(ihtl_c.l2_misses) / m,
             "count");
  rep.metric("cachesim.pull.l2_miss_per_edge", static_cast<double>(pull_c.l2_misses) / m,
             "count");
  rep.metric("cachesim.ihtl.llc_miss_per_edge", static_cast<double>(ihtl_c.l3_misses) / m,
             "count");
  rep.details.set("cachesim_note",
                  "simulated single-thread scalar SpMV on the host's sysfs cache "
                  "geometry; not hardware counters");
}

}  // namespace

Report run_analytics(const RunConfig& cfg, SpanRecorder& spans) {
  Report rep;
  Workload w;
  w.k = static_cast<std::size_t>(cfg.param("lanes"));
  w.opt.tolerance = cfg.param("tolerance");
  w.opt.iterations = kMaxIterations;
  const double spmv_round_s = cfg.seconds * kSpmvShare / static_cast<double>(kRounds);

  const Graph g = cfg.params.find("graph")->as_string() == "web"
                      ? web_graph(cfg.seed, cfg.scale)
                      : social_graph(cfg.seed, cfg.scale);
  if (w.k > 1) w.sources = pick_sources(g, cfg.seed, w.k);

  ThreadPool pool;  // shipped default: hardware concurrency
  rep.details.set("threads", static_cast<std::uint64_t>(pool.size()));

  // The benchmark's own data is allocated before memory tracking starts, so
  // mem_mb covers only what the system adds. That data is the input, the
  // serial references, the engine's x and y, and the per-round copies of
  // one PPR lane that the checks compare after the rounds.
  const auto xo = input_original(g, cfg.seed, w.k);
  EngineState st;
  st.k = w.k;
  st.x.assign(xo.size(), 0.0);
  st.y.assign(xo.size(), 0.0);
  std::vector<value_t> ref_y;
  ihtl::PageRankResult ref_pr;
  {
    Span s(spans, "check.reference", spans.new_request());
    ref_y = serial_spmv(g, xo, w.k);
    if (w.k == 1) {
      ThreadPool serial(1);
      ref_pr = ihtl::pagerank(serial, g, ihtl::SpmvKernel::pull, w.opt);
    }
  }
  const std::size_t ppr_lane = derive_seed(cfg.seed, 6) % w.k;
  std::vector<std::vector<value_t>> lanes(w.k > 1 ? kRounds : 0,
                                          std::vector<value_t>(g.num_vertices()));
  std::vector<unsigned> lane_iterations(lanes.size());
  PeakRss rss;

  // Rounds of set-up, timed SpMVs and one solve. Each round sets up from
  // nothing; the last round's engine stays for the traced extras. setup_s
  // is the median of every round's set-up; the SpMV metrics pool the timed
  // SpMVs of the middle half of the rounds ranked by their median SpMV (see
  // middle_half) and solve_s is the median of the solves. Every round
  // checks its cold SpMV, its
  // last timed SpMV and its solve, and those checked operations are what
  // `attempted` counts.
  // Traced run: the engine also reports its phase spans into `reg`, and
  // blocks of five SpMVs alternate between span-wrapped and bare calls, so
  // the benchmark's own tracing cost is measured on the same SpMVs.
  struct Round {
    double setup_s = 0.0, build_s = 0.0, solve_s = 0.0, steal = 0.0;
    std::vector<double> spmv_ms, bare_ms;
  };
  ihtl::telemetry::MetricsRegistry reg, preg;
  std::vector<Round> runs(kRounds);
  std::optional<ihtl::PageRankResult> last;
  for (std::size_t r = 0; r < kRounds; ++r) {
    Round& rd = runs[r];
    const CpuTicks ticks0 = read_cpu_ticks();
    {
      Span s(spans, "setup", spans.new_request());
      const SetupTimes t = set_up(st, pool, g, xo, spans);
      rd.setup_s = t.setup_s;
      rd.build_s = t.build_s;
    }
    check_spmv(st, ref_y, rep, spans);
    if (r == 0) {
      // Untimed warm-up: the first SpMVs of a fresh process can run several
      // times slower for a second or more.
      Span s(spans, "core.warmup", spans.new_request());
      const auto t0 = Clock::now();
      while (seconds_since(t0) < kWarmupS) st.spmv();
    }
    if (cfg.trace) st.engine->set_metrics(&reg);
    pool.reset_stats();
    const auto round_t0 = Clock::now();
    for (std::size_t i = 0; i < kMinSpmvsPerRound || seconds_since(round_t0) < spmv_round_s;
         ++i) {
      const bool traced = cfg.trace && (i / 5) % 2 == 0;
      std::optional<Span> s;
      if (traced) s.emplace(spans, "core.spmv", spans.new_request());
      const auto t0 = Clock::now();
      st.spmv();
      const double ms = seconds_since(t0) * 1e3;
      s.reset();
      (!cfg.trace || traced ? rd.spmv_ms : rd.bare_ms).push_back(ms);
    }
    check_spmv(st, ref_y, rep, spans);
    // Scheduling counters of the SpMV loops only (export accumulates).
    if (cfg.trace) pool.export_metrics(preg, "pool");

    auto& global = ihtl::telemetry::MetricsRegistry::global();
    global.clear();
    {
      Span s(spans, "apps.solve", spans.new_request());
      const auto t0 = Clock::now();
      last = solve(pool, g, *st.ig, w);
      rd.solve_s = seconds_since(t0);
    }
    rd.steal = steal_share(ticks0, read_cpu_ticks());
    if (w.k == 1) {
      check_pagerank(*last, ref_pr, w.opt.tolerance, rep, spans);
    } else {
      for (vid_t v = 0; v < g.num_vertices(); ++v) lanes[r][v] = last->ranks[v * w.k + ppr_lane];
      lane_iterations[r] = last->iterations_run;
    }
    if (cfg.trace && r + 1 == kRounds) {
      // The app's own per-iteration work: solve time outside the SpMVs its
      // engine recorded on the global registry.
      const auto sp = global.span("spmv");
      const double iters = std::max(1.0, static_cast<double>(last->iterations_run));
      rep.metric("apps.iterations", static_cast<double>(last->iterations_run), "count");
      rep.metric("apps.non_spmv_ms",
                 (rd.solve_s - (sp ? sp->total_s : 0.0)) * 1e3 / iters, "ms");
    }
  }
  rss.stop();
  if (w.k > 1) {
    check_ppr_lanes(g, w.sources[ppr_lane], w.opt.damping, lanes, lane_iterations, rep, spans);
  }

  std::vector<double> setup_s, build_s, solve_s, spmv_ms, bare_ms, round_p50;
  for (const Round& rd : runs) {
    setup_s.push_back(rd.setup_s);
    build_s.push_back(rd.build_s);
    solve_s.push_back(rd.solve_s);
    round_p50.push_back(median(rd.spmv_ms));
    spmv_ms.insert(spmv_ms.end(), rd.spmv_ms.begin(), rd.spmv_ms.end());
    bare_ms.insert(bare_ms.end(), rd.bare_ms.begin(), rd.bare_ms.end());
  }
  const std::size_t timed_spmvs = spmv_ms.size() + bare_ms.size();
  regime_details(cfg, g, *st.ig, w.k, rep);
  rep.details.set("rounds", static_cast<std::uint64_t>(kRounds));
  rep.details.set("round_steal_pct", [&] {
    auto a = ihtl::telemetry::JsonValue::array();
    for (const Round& rd : runs) a.push_back(100.0 * rd.steal);
    return a;
  }());
  rep.details.set("round_spmv_ms_p50", [&] {
    auto a = ihtl::telemetry::JsonValue::array();
    for (double v : round_p50) a.push_back(v);
    return a;
  }());
  rep.details.set("round_solve_s", [&] {
    auto a = ihtl::telemetry::JsonValue::array();
    for (const Round& rd : runs) a.push_back(rd.solve_s);
    return a;
  }());
  rep.details.set("timed_spmvs", static_cast<std::uint64_t>(timed_spmvs));
  rep.details.set("iterations", static_cast<std::uint64_t>(last->iterations_run));

  if (!cfg.trace) {
    std::vector<double> pooled_ms;
    for (const std::size_t r : middle_half(round_p50)) {
      pooled_ms.insert(pooled_ms.end(), runs[r].spmv_ms.begin(), runs[r].spmv_ms.end());
    }
    rep.details.set("pooled_spmvs", static_cast<std::uint64_t>(pooled_ms.size()));
    rep.metric("setup_s", median(setup_s), "s");
    rep.metric("mem_mb", rss.growth_mb(), "MB");
    if (!reportable(pooled_ms.size(), 0.9)) rep.invalid = "too few SpMVs for p90";
    const double p50 = percentile(pooled_ms, 0.5);
    rep.metric("op_ms_p50", p50, "ms");
    rep.metric("op_ms_p90", percentile(pooled_ms, 0.9), "ms");
    rep.metric("ops_per_s", 1e3 / p50, "1/s");
    rep.metric("solve_s", median(solve_s), "s");
    return rep;
  }
  const auto per_spmv_ms = [&](const char* path) {
    const auto s = reg.span(path);
    return s && s->count ? s->total_s * 1e3 / static_cast<double>(s->count) : 0.0;
  };
  rep.metric("core.push_ms", per_spmv_ms("spmv/push"), "ms");
  rep.metric("core.merge_ms", per_spmv_ms("spmv/merge"), "ms");
  rep.metric("core.reset_ms", per_spmv_ms("spmv/reset"), "ms");
  rep.metric("core.pull_ms", per_spmv_ms("spmv/pull"), "ms");
  rep.metric("core.build_s", median(build_s), "s");
  const auto& regime = *rep.details.find("regime");
  for (const char* key : {"hubs", "blocks"}) {
    rep.metric(std::string("core.") + key, regime.find(key)->as_number(), "count");
  }
  for (const char* key : {"flipped_edge_share", "x_over_l2"}) {
    rep.metric(std::string("core.") + key, regime.find(key)->as_number(), "ratio");
  }
  rep.metric("core.single_owner_blocks",
             static_cast<double>(st.engine->single_owner_blocks()), "count");
  rep.metric("core.sparse_binned", st.engine->sparse_binned() ? 1.0 : 0.0, "count");

  // Imbalance of the last round's SpMV loop; steals per timed SpMV.
  rep.metric("parallel.imbalance", preg.gauge("pool.imbalance").value_or(0.0), "ratio");
  rep.metric("parallel.steals",
             static_cast<double>(preg.counter_total("pool.steals")) /
                 static_cast<double>(timed_spmvs),
             "count");
  const double t4_ms = percentile(bare_ms, 0.5);
  rep.metric("trace.overhead_pct", (percentile(spmv_ms, 0.5) / t4_ms - 1.0) * 100.0, "%");
  layer_extras(cfg, g, st, pool, t4_ms, rep, spans);
  return rep;
}

}  // namespace perfbench
