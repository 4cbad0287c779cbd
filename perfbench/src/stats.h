// Order statistics shared by every workload of the benchmark.
//
// percentile() interpolates linearly between closest ranks (numpy's
// default). A percentile is reported only when at least kTailSamples
// samples lie beyond it: with n samples, p is reportable iff
// n * (1 - p) >= 10. The run-to-run spread rule lives in spread.py.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kTailSamples = 10;

/// Samples needed so that at least kTailSamples lie beyond percentile `p`
/// (p in [0, 1)).
inline std::size_t min_samples_for(double p) {
  if (p < 0.0 || p >= 1.0) throw std::invalid_argument("percentile out of range");
  return static_cast<std::size_t>(
      std::ceil(static_cast<double>(kTailSamples) / (1.0 - p) - 1e-9));
}

inline bool reportable(std::size_t n, double p) {
  return n >= min_samples_for(p);
}

/// Linear-interpolation percentile of `v` (copied and sorted). +inf samples
/// (failed requests) sort last, so they count as missing any limit.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile of no samples");
  if (p < 0.0 || p > 1.0) throw std::invalid_argument("percentile out of range");
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || v[lo] == v[hi]) return v[lo];
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Indices (ascending) of the `keep` rounds with the lowest disturbance
/// (e.g. the host CPU steal share), ties broken by round order. A round
/// whose vCPUs the hypervisor gave to neighbours measures the neighbours as
/// much as the system; the metrics pool only the least-disturbed rounds.
inline std::vector<std::size_t> least_disturbed(const std::vector<double>& disturbance,
                                                std::size_t keep) {
  std::vector<std::size_t> idx(disturbance.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return disturbance[a] < disturbance[b];
  });
  idx.resize(std::min(keep, idx.size()));
  std::sort(idx.begin(), idx.end());
  return idx;
}

/// Indices (ascending) of the middle half of the rounds ranked by `score`
/// (e.g. each round's median): the quarter with the lowest and the quarter
/// with the highest score are left out, ties broken by round order. A
/// round's own state (where its allocations landed) and the host's (load
/// from neighbours, which steal ticks do not show when it is memory
/// traffic) both move a round's figures; the middle rounds leave out the
/// lucky and the disturbed ones alike.
inline std::vector<std::size_t> middle_half(const std::vector<double>& score) {
  std::vector<std::size_t> idx(score.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::size_t a, std::size_t b) { return score[a] < score[b]; });
  const std::size_t drop = idx.size() / 4;
  std::vector<std::size_t> mid(idx.begin() + static_cast<std::ptrdiff_t>(drop),
                               idx.end() - static_cast<std::ptrdiff_t>(drop));
  std::sort(mid.begin(), mid.end());
  return mid;
}

}  // namespace perfbench
