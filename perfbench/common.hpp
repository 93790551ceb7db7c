#pragma once
// Shared plumbing of the end-to-end benchmark program: the run
// configuration, the report every workload fills (metrics, output checks,
// attempted/failed counts, provenance), quantiles, result digests, and the
// wall-clock spans the traced run records around each call into a layer.

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measured time of one run
  bool trace = false;     // per-layer run (untraced half + traced half)
};

/// Everything a run writes lives here, relative to the repository root.
inline const std::string kOutDir = ".bench_out";

/// Quantile with linear interpolation between the closest ranks: rank
/// (n-1)*q, so the median of an even count is the midpoint. 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void config(const std::string& key, const std::string& value);
  void config(const std::string& key, double value);
  /// An output check. A failed check marks the run incorrect.
  void check(const std::string& name, bool ok, const std::string& detail = {});
  /// Layer-sum check: the traced parts must add up to the whole within
  /// `tolerance` (relative). Records the signed residual as a metric.
  void sum_check(const std::string& name, double parts, double whole,
                 double tolerance);

  void attempted(std::uint64_t n) { attempted_ += n; }
  void failed(std::uint64_t n) { failed_ += n; }
  bool correct() const noexcept { return correct_ && failed_ == 0; }

  /// {"correct","attempted","failed","metrics":{name:{value,unit}},
  ///  "config":{...},"checks":[...]} on one line.
  std::string to_json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  struct Check {
    std::string name;
    bool ok = true;
    std::string detail;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> config_text_;
  std::vector<std::pair<std::string, double>> config_num_;
  std::vector<Check> checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

/// FNV-1a digest of deterministic outputs (result tables, simulated
/// counters, exact storage counts).
class Digest {
 public:
  void add(std::string_view bytes);
  void add(std::uint64_t v);
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(double v);
  std::string hex() const;

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// Wall-clock spans around calls into a layer, kept in memory in an
/// obs::TraceRecorder (one Chrome track per layer) and written as Chrome
/// trace_event JSON when the run ends. At most kMaxEvents spans are kept;
/// later ones are timed by the caller but not stored.
class Spans {
 public:
  static constexpr std::size_t kMaxEvents = 50'000;

  Spans();
  Spans(const Spans&) = delete;
  Spans& operator=(const Spans&) = delete;

  void record(std::string_view layer, std::string_view name,
              Clock::time_point start, Clock::time_point end,
              std::vector<rb::obs::TraceArg> args = {});
  /// Writes the trace; returns the path.
  std::string write(const RunConfig& cfg) const;

 private:
  rb::obs::TraceRecorder recorder_;
  Clock::time_point epoch_;
  std::size_t recorded_ = 0;
};

/// Moves the calling thread round-robin over the CPUs it may run on, one
/// step per tick() that comes at least kInterval after the last move,
/// and restores the original affinity when destroyed. On a shared host each
/// core sees its own, changing interference from neighbours; a run that
/// visits every core measures their mix rather than one core's luck, which
/// keeps medians steady from run to run.
class CpuRotor {
 public:
  static constexpr auto kInterval = std::chrono::milliseconds{250};

  CpuRotor();
  ~CpuRotor();
  CpuRotor(const CpuRotor&) = delete;
  CpuRotor& operator=(const CpuRotor&) = delete;

  /// Call between operations.
  void tick();

 private:
  std::vector<int> cpus_;
  cpu_set_t original_{};
  std::size_t next_ = 0;
  Clock::time_point last_;
};

/// Peak resident set size of this process so far (MiB).
double peak_rss_mb();

/// Host and build provenance: seed, SIMD ISA, CPU model, nproc, build
/// type, compiler, sanitizer flag.
void add_provenance(Report& report, const RunConfig& cfg);

/// Filesystem type name of `path` (statfs magic), "unknown" when unmapped.
std::string filesystem_of(const std::string& path);

/// Seeded 64-bit mixer (splitmix64 finalizer) for deriving sub-seeds and
/// value bytes.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace perfbench
