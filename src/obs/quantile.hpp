#pragma once
// The stack's one quantile rule. Every percentile the repo reports — the
// exact tracker (sim::PercentileTracker), the hedge delay
// (serve::HedgeDelayTracker), the bucketed estimate
// (obs::LatencyHistogram) and the critical-path bands
// (obs::RequestTracer::band_summary) — places percentile p of n ordered
// samples at the 0-based fractional rank
//
//     r = p / 100 * (n - 1)
//
// and reads the value by linear interpolation between the order statistics
// floor(r) and floor(r) + 1, so p0 is the minimum and p100 the maximum.
// Empty input is the caller's decision: the exact entries below throw.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>

namespace rb::obs {

/// Fractional rank r of percentile `p` among `n` ordered samples (0 when n
/// is 0). Throws std::invalid_argument unless p is in [0, 100].
inline double quantile_rank(std::size_t n, double p) {
  if (!(p >= 0.0 && p <= 100.0))
    throw std::invalid_argument{"percentile: p must be in [0, 100]"};
  return p / 100.0 * static_cast<double>(n == 0 ? 0 : n - 1);
}

/// Percentile `p` of ascending-sorted samples. Throws std::logic_error when
/// `sorted` is empty.
inline double quantile_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) throw std::logic_error{"quantile: no samples"};
  const double rank = quantile_rank(sorted.size(), p);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

/// quantile_sorted() of the same samples without sorting them: nth_element
/// places order statistic floor(r), and the minimum of the part above it is
/// order statistic floor(r) + 1. O(n); reorders `values`, which is scratch.
inline double quantile_select(std::span<double> values, double p) {
  if (values.empty()) throw std::logic_error{"quantile: no samples"};
  const double rank = quantile_rank(values.size(), p);
  const auto lo = static_cast<std::size_t>(rank);
  const auto at = values.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values.begin(), at, values.end());
  const double next = lo + 1 < values.size()
                          ? *std::min_element(at + 1, values.end())
                          : *at;
  const double frac = rank - static_cast<double>(lo);
  return *at + frac * (next - *at);
}

/// Band edge of percentile `p` over `n` sorted samples: the number of order
/// statistics ranked below r, i.e. ceil(r), and n at p = 100 so the maximum
/// is included. Edges at 0 = p_0 < ... < p_k = 100 partition [0, n).
inline std::size_t quantile_edge(std::size_t n, double p) {
  const double rank = quantile_rank(n, p);
  return p == 100.0 ? n : static_cast<std::size_t>(std::ceil(rank));
}

/// Percentile `p` estimated from bucket counts: bucket i holds counts[i]
/// samples in (bounds[i-1], bounds[i]] (bucket 0 starts at 0); the last
/// bucket is the overflow past bounds.back() and reports bounds.back().
/// The rank r is located in the cumulative counts, and the samples of its
/// bucket are taken as evenly spaced with the largest on the upper bound.
/// Returns 0 when every count is 0. Needs counts.size() == bounds.size() + 1
/// and a non-empty `bounds`.
inline double quantile_bucketed(std::span<const std::uint64_t> counts,
                                std::span<const double> bounds, double p) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  const double rank = quantile_rank(total, p);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (static_cast<double>(seen + counts[i]) > rank) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double hi = i < bounds.size() ? bounds[i] : bounds.back();
      const double frac = (rank - static_cast<double>(seen) + 1.0) /
                          static_cast<double>(counts[i]);
      return lo + (hi - lo) * std::min(frac, 1.0);
    }
    seen += counts[i];
  }
  return 0.0;
}

}  // namespace rb::obs
