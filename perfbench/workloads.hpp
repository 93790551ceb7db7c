#pragma once
// The benchmark's workloads. Each one builds its inputs from the seed,
// sets up (timed, several times), runs its closed loop for the configured
// seconds, checks every output, and fills the report. A traced run spends
// the first half untraced and the second half traced, so it can report
// per-layer numbers, layer-sum residuals and the tracing overhead from one
// process.
//
// Every workload also has a digest: a fixed amount of work whose
// deterministic outputs (result hashes, simulated counters, exact storage
// counts) must come out identical for the same seed.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Workload {
  const char* name;
  void (*run)(const RunConfig& cfg, Report& report);
  /// Fixed-work deterministic digest; output checks land in `report`.
  /// Null when another workload's digest covers the same code.
  std::string (*digest)(const RunConfig& cfg, Report& report);
};

void run_analytics_lsm(const RunConfig& cfg, Report& report);
void run_analytics_resident(const RunConfig& cfg, Report& report);
std::string analytics_digest(const RunConfig& cfg, Report& report);

void run_kv_durable(const RunConfig& cfg, Report& report);
std::string kv_durable_digest(const RunConfig& cfg, Report& report);

void run_serve_sim(const RunConfig& cfg, Report& report);
std::string serve_sim_digest(const RunConfig& cfg, Report& report);

void run_fabric_churn(const RunConfig& cfg, Report& report);
std::string fabric_churn_digest(const RunConfig& cfg, Report& report);

inline const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all{
      {"analytics_lsm", run_analytics_lsm, analytics_digest},
      // analytics_digest runs both the LSM and the resident plan.
      {"analytics_resident", run_analytics_resident, nullptr},
      {"kv_durable", run_kv_durable, kv_durable_digest},
      {"serve_sim", run_serve_sim, serve_sim_digest},
      {"fabric_churn", run_fabric_churn, fabric_churn_digest},
  };
  return all;
}

/// The end-to-end metrics every workload reports at the end of its measured
/// (untraced) phase: throughput and latency quantiles of its unit
/// operation, and peak memory so far.
void report_ops(Report& report, const std::vector<double>& op_ms,
                double ops, double busy_s);

}  // namespace perfbench
