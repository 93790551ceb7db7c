// One rank rule across the stack: the exact helper's sorted and selection
// entries, sim::PercentileTracker, serve::HedgeDelayTracker, the
// LatencyHistogram estimate and the RequestTracer bands, all on one fixed
// sample set.

#include "obs/quantile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "serve/resilience.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "sim/units.hpp"

namespace rb::obs {
namespace {

constexpr double kPercentiles[] = {0.0, 1.0, 50.0, 90.0, 95.0, 99.0, 99.9,
                                   100.0};

/// 1001 samples put every listed percentile on a whole rank (up to
/// rounding), so the exact quantile is itself a sample. Its first 997
/// samples put most of them between two ranks, where interpolation and a
/// nearest-rank pick differ.
constexpr std::size_t kSamples = 1001;
constexpr std::size_t kUneven = 997;

/// The first `n` of one fixed set of latencies in seconds, log-normal
/// around 1 ms.
std::vector<double> latencies(std::size_t n) {
  sim::Rng rng{42};
  std::vector<double> out(n);
  for (double& x : out) x = 1e-3 * rng.lognormal(0.0, 1.0);
  return out;
}

std::vector<double> sorted_copy(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs;
}

TEST(Quantile, SortedAndSelectionEntriesAgreeExactly) {
  for (const std::size_t n : {kSamples, kUneven, std::size_t{2},
                              std::size_t{1}}) {
    const std::vector<double> xs = latencies(n);
    const std::vector<double> sorted = sorted_copy(xs);
    for (const double p : kPercentiles) {
      std::vector<double> scratch = xs;
      EXPECT_EQ(quantile_select(scratch, p), quantile_sorted(sorted, p))
          << "n=" << n << " p=" << p;
    }
    EXPECT_EQ(quantile_sorted(sorted, 0.0), sorted.front());
    EXPECT_EQ(quantile_sorted(sorted, 100.0), sorted.back());
  }
}

TEST(Quantile, RejectsEmptyInputAndBadPercentiles) {
  std::vector<double> none;
  EXPECT_THROW(quantile_sorted(none, 50.0), std::logic_error);
  EXPECT_THROW(quantile_select(none, 50.0), std::logic_error);
  std::vector<double> one{1.0};
  EXPECT_THROW(quantile_sorted(one, -1.0), std::invalid_argument);
  EXPECT_THROW(quantile_select(one, 100.5), std::invalid_argument);
}

TEST(Quantile, ExactTrackersReturnTheHelpersValue) {
  for (const std::size_t n : {kSamples, kUneven}) {
    const std::vector<double> xs = latencies(n);
    const std::vector<double> sorted = sorted_copy(xs);
    sim::PercentileTracker tracker;
    for (const double x : xs) tracker.add(x);
    for (const double p : kPercentiles) {
      const double exact = quantile_sorted(sorted, p);
      EXPECT_EQ(tracker.percentile(p), exact) << "n=" << n << " p=" << p;

      serve::HedgeParams params;
      params.enabled = true;
      params.quantile = p;
      params.window = n;
      params.min_samples = n;
      params.min_delay = sim::from_seconds(sorted.front()) / 2;
      serve::HedgeDelayTracker hedge{params};
      for (const double x : xs) hedge.record(x);
      EXPECT_EQ(hedge.delay(), sim::from_seconds(exact))
          << "n=" << n << " p=" << p;
    }
  }
}

TEST(Quantile, HistogramEstimateLandsInTheExactQuantilesBucket) {
  const std::vector<double> xs = latencies(kSamples);
  const std::vector<double> sorted = sorted_copy(xs);
  LatencyHistogram h{exponential_bounds(1e-4, 1.5, 30)};
  EXPECT_EQ(h.percentile(50.0), 0.0);  // empty
  for (const double x : xs) h.observe(x);
  const std::vector<double>& bounds = h.bounds();
  ASSERT_LT(sorted.back(), bounds.back());  // no sample in the overflow
  for (const double p : kPercentiles) {
    const double exact = quantile_sorted(sorted, p);
    const auto b = static_cast<std::size_t>(
        std::lower_bound(bounds.begin(), bounds.end(), exact) -
        bounds.begin());
    const double lo = b == 0 ? 0.0 : bounds[b - 1];
    const double estimate = h.percentile(p);
    EXPECT_GT(estimate, lo) << "p=" << p;
    EXPECT_LE(estimate, bounds[b]) << "p=" << p;
  }
}

TEST(Quantile, BandsPartitionEveryFinishedTrace) {
  const std::vector<double> xs = latencies(kSamples);
  RequestTracer tracer;
  tracer.set_enabled(true);
  for (const double x : xs) {
    const TraceContext ctx = tracer.start_trace("get", 0);
    tracer.finish(ctx.trace_id, sim::from_seconds(x),
                  TraceOutcome::kCompleted);
  }
  const std::vector<BandDecomposition> bands = tracer.band_summary();
  ASSERT_EQ(bands.size(), 5u);
  std::uint64_t total = 0;
  for (const BandDecomposition& b : bands) {
    EXPECT_EQ(b.count, quantile_edge(xs.size(), b.hi_pct) -
                           quantile_edge(xs.size(), b.lo_pct))
        << b.band;
    total += b.count;
  }
  EXPECT_EQ(total, tracer.finished());
}

}  // namespace
}  // namespace rb::obs
