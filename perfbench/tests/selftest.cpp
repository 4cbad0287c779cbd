// Self-tests of the benchmark's own helpers: percentiles and the
// tail-sample rule, round selection, span self times, and the determinism
// of the seeded input streams. `run.py --self-test` runs this binary, the
// spread-rule test (test_spread.py) and a tiny-scale run of every workload.
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include "inputs.h"
#include "spans.h"
#include "stats.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::abs(a - b) <= 1e-12 * std::max(1.0, std::abs(b)); }

void test_percentile() {
  using perfbench::percentile;
  expect(percentile({5.0}, 0.9) == 5.0, "percentile of one sample");
  expect(near(percentile({1, 2, 3, 4}, 0.5), 2.5), "median of four");
  expect(near(percentile({4, 1, 3, 2}, 0.0), 1.0), "p0 is the minimum");
  expect(near(percentile({4, 1, 3, 2}, 1.0), 4.0), "p100 is the maximum");
  std::vector<double> v;
  for (int i = 1; i <= 11; ++i) v.push_back(i);
  expect(near(percentile(v, 0.9), 10.0), "p90 of 1..11");
  expect(std::isinf(percentile({1, 2, INFINITY}, 1.0)), "failed samples sort last");
  expect(near(percentile({1, 2, INFINITY}, 0.5), 2.0), "median below a failure");
}

void test_tail_rule() {
  using perfbench::min_samples_for;
  using perfbench::reportable;
  expect(min_samples_for(0.5) == 20, "p50 needs 20 samples");
  expect(min_samples_for(0.9) == 100, "p90 needs 100 samples");
  expect(min_samples_for(0.99) == 1000, "p99 needs 1000 samples");
  expect(!reportable(99, 0.9) && reportable(100, 0.9), "p90 boundary at 100");
}

void test_round_selection() {
  using perfbench::least_disturbed;
  const std::vector<std::size_t> want = {0, 2, 3};
  expect(least_disturbed({0.01, 0.2, 0.0, 0.01, 0.05}, 3) == want,
         "least-disturbed rounds, ties by order, returned ascending");
  expect(least_disturbed({0.1, 0.2}, 5).size() == 2, "keep capped at the round count");

  using perfbench::middle_half;
  // Ranked: 1(r3) 2(r1) 3(r5) 4(r2) 5(r6) 7(r0) 9(r4) 9(r7); quarters of two dropped.
  const std::vector<std::size_t> mid = {0, 2, 5, 6};
  expect(middle_half({7, 2, 4, 1, 9, 3, 5, 9}) == mid,
         "middle half by score, returned ascending");
  const std::vector<std::size_t> ties = {1, 2, 3, 4};
  expect(middle_half({5, 5, 5, 5, 5, 5}) == ties, "ties ranked by round order");
  const std::vector<std::size_t> few = {0, 1, 2};
  expect(middle_half({3, 1, 2}) == few, "fewer than four rounds: all kept");
}

void test_spans() {
  perfbench::SpanRecorder rec(true);
  const auto req = rec.new_request();
  {
    perfbench::Span outer(rec, "apps.solve", req);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    {
      perfbench::Span inner(rec, "core.spmv");
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
  }
  const auto spans = rec.snapshot();
  expect(spans.size() == 2, "two spans recorded");
  expect(spans[1].parent == 1 && spans[1].request == req, "child inherits parent and request");
  const auto self = rec.self_seconds_by_layer();
  expect(self.at("core") >= 0.029, "child self time");
  expect(self.at("apps") >= 0.019 && self.at("apps") < 0.029, "parent self time excludes child");
  perfbench::SpanRecorder off(false);
  { perfbench::Span s(off, "core.spmv"); }
  expect(off.snapshot().empty(), "disabled recorder records nothing");
}

void test_streams() {
  using namespace perfbench;
  const Graph g = serve_graph(7, Scale::tiny);
  const ServeMix mix;
  const auto a = serve_stream(g, 7, 500, mix);
  const auto b = serve_stream(g, 7, 500, mix);
  bool same = a.size() == b.size();
  std::size_t updates = 0;
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].op == b[i].op && a[i].source == b[i].source &&
           a[i].x_seed == b[i].x_seed && a[i].edges == b[i].edges;
    if (a[i].op == ihtl::serve::QueryOp::update) {
      ++updates;
      for (const auto& e : a[i].edges) {
        expect(g.has_edge(e.src, e.dst), "update edges exist in the graph");
      }
    }
  }
  expect(same, "Zipf source and update streams identical for a fixed seed");
  expect(updates > 0, "the stream carries updates");
  const auto c = serve_stream(g, 8, 500, mix);
  bool differs = false;
  for (std::size_t i = 0; i < c.size(); ++i) differs |= c[i].source != a[i].source;
  expect(differs, "another seed gives another stream");
  // Zipf: rank 0 is the most frequent.
  ihtl::Rng rng(1);
  const ZipfSampler z(100, 1.0);
  std::vector<int> counts(100);
  for (int i = 0; i < 20000; ++i) ++counts[z(rng)];
  expect(counts[0] > counts[1] && counts[1] > counts[10], "Zipf popularity is skewed");
  const Graph g2 = serve_graph(7, Scale::tiny);
  expect(g2.num_edges() == g.num_edges() && g2.out().targets == g.out().targets,
         "graph generation deterministic for a fixed seed");
  expect(pick_sources(g, 3, 8) == pick_sources(g, 3, 8), "ppr sources deterministic");
}

}  // namespace

int main() {
  test_percentile();
  test_tail_rule();
  test_round_selection();
  test_spans();
  test_streams();
  if (failures) {
    std::fprintf(stderr, "%d self-test failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench self-test: ok\n");
  return 0;
}
