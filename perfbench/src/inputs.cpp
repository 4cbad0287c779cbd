#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

#include "gen/generators.h"

namespace perfbench {

using ihtl::Rng;
using ihtl::serve::QueryOp;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (stream * 0xA0761D6478BD642FULL);
  ihtl::splitmix64(state);
  return ihtl::splitmix64(state);
}

namespace {

/// datasets.cpp's social mapping: skew in [0,1] -> RMAT a in [0.45, 0.70].
ihtl::RmatParams social_params(double skew, unsigned scale,
                               unsigned edge_factor, std::uint64_t seed) {
  ihtl::RmatParams p;
  p.scale = scale;
  p.edge_factor = edge_factor;
  p.a = 0.45 + 0.25 * skew;
  p.b = p.c = (0.97 - p.a) / 2.0;
  p.reciprocity = 0.45;
  p.seed = seed;
  return p;
}

}  // namespace

Graph social_graph(std::uint64_t seed, Scale scale) {
  const auto p = social_params(/*TwtrMpi skew=*/0.75,
                               scale == Scale::full ? 21 : 12,
                               /*large edge factor=*/10, derive_seed(seed, 1));
  return ihtl::build_eval_graph(vid_t{1} << p.scale, ihtl::rmat_edges(p));
}

Graph web_graph(std::uint64_t seed, Scale scale) {
  constexpr double kSkew = 0.30;  // ClWb9
  ihtl::WebParams p;
  p.num_vertices = vid_t{1} << (scale == Scale::full ? 21 : 12);
  p.avg_out_degree = 12;  // large scale
  p.max_out_degree = 48;
  p.hub_fraction = 0.006 - 0.005 * kSkew;
  p.hub_edge_share = 0.30 + 0.45 * kSkew;
  p.locality_window = 0.01;
  p.seed = derive_seed(seed, 2);
  return ihtl::build_eval_graph(p.num_vertices, ihtl::web_edges(p));
}

Graph serve_graph(std::uint64_t seed, Scale scale) {
  const auto p = social_params(/*TwtrMpi skew=*/0.75,
                               scale == Scale::full ? 16 : 10,
                               /*bench edge factor=*/16, derive_seed(seed, 3));
  return ihtl::build_eval_graph(vid_t{1} << p.scale, ihtl::rmat_edges(p));
}

std::vector<vid_t> pick_sources(const Graph& g, std::uint64_t seed,
                                std::size_t k) {
  const vid_t n = g.num_vertices();
  if (k == 0 || n < k) throw std::runtime_error("graph has too few sources");
  // Candidates: every vertex at least as wide as the k-th widest.
  std::vector<ihtl::eid_t> degrees(n);
  for (vid_t v = 0; v < n; ++v) degrees[v] = g.out_degree(v);
  std::nth_element(degrees.begin(), degrees.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   degrees.end(), std::greater<>());
  const ihtl::eid_t bar = std::max<ihtl::eid_t>(degrees[k - 1], 1);
  std::vector<vid_t> widest;
  for (vid_t v = 0; v < n; ++v) {
    if (g.out_degree(v) >= bar) widest.push_back(v);
  }
  if (widest.size() < k) throw std::runtime_error("graph has too few sources");
  Rng rng(derive_seed(seed, 4));
  for (std::size_t i = 0; i < k; ++i) {
    std::swap(widest[i], widest[i + rng.next_below(widest.size() - i)]);
  }
  widest.resize(k);
  return widest;
}

ZipfSampler::ZipfSampler(std::size_t n, double s) : cdf_(n) {
  if (n == 0) throw std::invalid_argument("empty Zipf support");
  double acc = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = acc;
  }
  for (double& c : cdf_) c /= acc;
}

std::size_t ZipfSampler::operator()(Rng& rng) const {
  const double u = rng.next_double();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

std::vector<ServeOp> serve_stream(const Graph& g, std::uint64_t seed,
                                  std::size_t count, const ServeMix& mix) {
  const vid_t n = g.num_vertices();
  const auto m = static_cast<std::uint64_t>(g.num_edges());
  if (n == 0 || m < mix.update_edges) {
    throw std::invalid_argument("serve stream needs a non-empty graph");
  }
  Rng rng(derive_seed(seed, 5));
  // Popularity rank -> vertex: a seeded permutation, so the popular
  // sources are not the low IDs.
  std::vector<vid_t> by_rank(n);
  std::iota(by_rank.begin(), by_rank.end(), vid_t{0});
  for (vid_t i = n; i > 1; --i) {
    std::swap(by_rank[i - 1], by_rank[rng.next_below(i)]);
  }
  const ZipfSampler sources(n, mix.zipf_s);
  const ZipfSampler seeds(mix.x_seeds, mix.zipf_s);
  const auto& offsets = g.out().offsets;

  // Op types are stratified: every block of kMixBlock requests holds the
  // mix's exact counts in a seeded order, so the mix a run sees does not
  // vary with the seed; only sources, seeds and edges are drawn freely.
  std::vector<QueryOp> block;
  const auto add = [&](QueryOp op, double share) {
    const auto c = static_cast<std::size_t>(std::lround(share * kMixBlock));
    block.insert(block.end(), c, op);
  };
  add(QueryOp::ppr, mix.ppr);
  add(QueryOp::bfs, mix.bfs);
  add(QueryOp::update, mix.update);
  if (block.size() > kMixBlock) throw std::invalid_argument("mix shares exceed 1");
  block.resize(kMixBlock, QueryOp::spmv);

  std::vector<ServeOp> ops(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i % kMixBlock == 0) {
      for (std::size_t j = block.size(); j > 1; --j) {
        std::swap(block[j - 1], block[rng.next_below(j)]);
      }
    }
    ServeOp& op = ops[i];
    op.op = block[i % kMixBlock];
    switch (op.op) {
      case QueryOp::ppr:
      case QueryOp::bfs:
        op.source = by_rank[sources(rng)];
        break;
      case QueryOp::spmv:
        op.x_seed = 1 + seeds(rng);
        break;
      default: {
        std::unordered_set<std::uint64_t> picked;
        while (op.edges.size() < mix.update_edges) {
          const std::uint64_t e = rng.next_below(m);
          if (!picked.insert(e).second) continue;
          // The edge's source: the row whose offset range holds e.
          const auto row =
              std::upper_bound(offsets.begin(), offsets.end(), e) - offsets.begin() - 1;
          op.edges.push_back({static_cast<vid_t>(row), g.out().targets[e]});
        }
      }
    }
  }
  return ops;
}

ihtl::serve::QueryRequest to_request(const ServeOp& op) {
  ihtl::serve::QueryRequest req;
  req.op = op.op;
  switch (op.op) {
    case QueryOp::ppr:
    case QueryOp::bfs:
      req.sources = {op.source};
      break;
    case QueryOp::spmv:
      req.x_seed = op.x_seed;
      break;
    case QueryOp::update:
      req.remove = op.edges;
      req.insert = op.edges;
      break;
    default:
      break;
  }
  return req;
}

}  // namespace perfbench
