// Workload inputs, all derived from the benchmark's --seed.
//
// Graph generators reuse src/gen with the parameters src/gen/datasets.cpp
// gives the named datasets; only the generator seed comes from the
// benchmark seed. The serve streams (Zipf-popular sources, update batches)
// are pure functions of (graph, seed), so a seed names one exact stream.
#pragma once

#include <cstdint>
#include <vector>

#include "gen/rng.h"
#include "graph/graph.h"
#include "serve/protocol.h"

namespace perfbench {

using ihtl::Edge;
using ihtl::Graph;
using ihtl::vid_t;

/// full: the workload as specified; tiny: a 2^10..2^12-vertex stand-in for
/// the smoke test.
enum class Scale { full, tiny };

/// Independent sub-seed `stream` of `seed` (SplitMix64 of both).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// TwtrMpi-large RMAT parameters (skew 0.75, 2^21 nominal vertices, edge
/// factor 10, reciprocity 0.45). tiny: 2^12 nominal vertices.
Graph social_graph(std::uint64_t seed, Scale scale);
/// ClWb9-large web parameters (skew 0.30, 2^21 vertices, mean out-degree
/// 12, max 48). tiny: 2^12 vertices.
Graph web_graph(std::uint64_t seed, Scale scale);
/// TwtrMpi-bench RMAT parameters (2^16 nominal vertices, edge factor 16)
/// for the daemon. tiny: 2^10 nominal vertices.
Graph serve_graph(std::uint64_t seed, Scale scale);

/// `k` distinct seeded vertices among the widest ones (out-degree at least
/// the k-th largest; on the web graphs, the capped maximum), so the lanes
/// of every seed start from comparable sources and the iterations to the
/// tolerance vary little from seed to seed.
std::vector<vid_t> pick_sources(const Graph& g, std::uint64_t seed,
                                std::size_t k);

/// Zipf(s) over ranks [0, n): P(r) proportional to 1 / (r + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);
  std::size_t operator()(ihtl::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Requests per stratified block of a serve stream (see serve_stream).
inline constexpr std::size_t kMixBlock = 50;

/// Share of each op in a serve stream and the shape of its requests. The
/// spmv share is what remains of the block after the others.
struct ServeMix {
  double ppr = 0.70;
  double bfs = 0.12;
  double update = 0.02;
  double zipf_s = 1.0;         ///< popularity skew of sources and x seeds
  std::size_t x_seeds = 64;    ///< distinct spmv input vectors
  std::size_t update_edges = 8;  ///< edges removed and re-inserted per update
};

/// One request of a serve stream.
struct ServeOp {
  ihtl::serve::QueryOp op = ihtl::serve::QueryOp::ppr;
  vid_t source = 0;           ///< ppr / bfs
  std::uint64_t x_seed = 0;   ///< spmv
  std::vector<Edge> edges;    ///< update: removed, then re-inserted
};

/// `count` seeded ops over `g`. Each block of kMixBlock ops holds the mix's
/// exact op counts in a seeded order. Sources follow Zipf popularity over a
/// seeded permutation of the vertices; x seeds follow Zipf over
/// [1, mix.x_seeds]. An update removes `update_edges` distinct edges drawn
/// uniformly from g's edge list and re-inserts them in the same batch, so
/// every update is valid in any order and keeps the edge multiset (each
/// still rewrites the rows it touches and bumps the epoch).
std::vector<ServeOp> serve_stream(const Graph& g, std::uint64_t seed,
                                  std::size_t count, const ServeMix& mix);

/// The request of `op` (cache on, shipped ppr defaults).
ihtl::serve::QueryRequest to_request(const ServeOp& op);

}  // namespace perfbench
