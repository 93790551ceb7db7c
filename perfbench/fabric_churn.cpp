// fabric_churn: the net.fabric max-min allocator under flow churn. A
// FlowSimulator on make_fat_tree(8) starts kFlows concurrent random-pair
// flows; each completion starts a replacement until the churn budget is
// spent, then the fabric drains. It is the only workload that drives the
// allocator.
//
// Set-up, timed in every repetition, builds the fabric and its routes. The
// unit operation is one step batch of kBatchEvents simulator events during
// the steady churn phase; the throughput is flow events (starts and
// completions) per host second over the whole repetition.
// Every repetition simulates the same inputs: every started flow must
// complete, and the digest (allocator counts, completion times) must match
// the first repetition's.

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <vector>

#include "net/fabric.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace rb;

constexpr int kFatTreeK = 8;
constexpr int kFlows = 2000;
constexpr int kChurn = 4000;
// Allocator events are expensive (each can re-solve the fabric); a 256-event
// batch is about 0.1 s of host time.
constexpr std::size_t kBatchEvents = 256;

struct ChurnRun {
  double setup_s = 0.0;
  double host_s = 0.0;
  std::uint64_t started = 0, completed = 0, failed = 0;
  net::AllocatorStats stats;
  double fct_p50_s = 0.0, fct_p99_s = 0.0;
  std::string digest;
};

/// The fat tree, its router and its hosts. Construction resolves a route
/// between every pair of hosts, so set-up does the same work for every seed.
struct Fabric {
  Fabric()
      : topo{net::make_fat_tree(kFatTreeK)},
        router{topo},
        hosts{topo.nodes_of_kind(net::NodeKind::kHost)} {
    for (const net::NodeId src : hosts) {
      for (const net::NodeId dst : hosts) {
        if (router.path(src, dst, src * hosts.size() + dst).size() > 6) {
          throw std::logic_error{"fat tree route longer than 6 hops"};
        }
      }
    }
  }
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  const net::Topology topo;
  const net::Router router;  // holds a reference to topo
  const std::vector<net::NodeId> hosts;
};

ChurnRun churn(std::uint64_t seed, std::vector<double>& batch_ms,
               Spans* spans, CpuRotor* rotor) {
  ChurnRun run;
  const auto t0 = Clock::now();
  const Fabric tree;
  run.setup_s = seconds_between(t0, Clock::now());
  const auto& hosts = tree.hosts;

  sim::Simulator sim;
  net::FlowSimulator fabric{sim, tree.topo, tree.router};
  sim::Rng rng{mix64(seed)};
  int remaining = kChurn;
  const auto start_one = [&](const net::FlowCallback& on_done) {
    const std::size_t a = rng.uniform_index(hosts.size());
    std::size_t b = rng.uniform_index(hosts.size() - 1);
    if (b >= a) ++b;  // distinct endpoints
    const sim::Bytes size = 1 * sim::kMiB + rng.uniform_index(4 * sim::kMiB);
    const auto s0 = Clock::now();
    fabric.start_flow(hosts[a], hosts[b], size, on_done);
    if (spans != nullptr) spans->record("net", "start_flow", s0, Clock::now());
  };
  net::FlowCallback on_done = [&](const net::FlowRecord&) {
    if (remaining <= 0) return;
    --remaining;
    start_one(on_done);
  };
  const auto b0 = Clock::now();
  for (int i = 0; i < kFlows; ++i) start_one(on_done);
  run.host_s += seconds_between(b0, Clock::now());
  while (true) {
    if (rotor != nullptr) rotor->tick();
    std::size_t n = 0;
    const auto s0 = Clock::now();
    while (n < kBatchEvents && sim.step()) ++n;
    const auto s1 = Clock::now();
    if (n == 0) break;
    run.host_s += seconds_between(s0, s1);
    if (spans != nullptr) spans->record("sim", "step_batch", s0, s1);
    if (n < kBatchEvents) break;
    // Unit ops are the batches of the steady phase, while every completion
    // still starts a replacement; the drain after it is timed in host_s
    // only, since its batches get cheaper as the fabric empties.
    if (remaining > 0) batch_ms.push_back(seconds_between(s0, s1) * 1e3);
  }

  run.started = fabric.started_flows();
  run.completed = fabric.completed_flows();
  run.failed = fabric.failed_flows();
  run.stats = fabric.allocator_stats();
  run.fct_p50_s = fabric.fct_seconds().p50();
  run.fct_p99_s = fabric.fct_seconds().p99();
  Digest d;
  for (const std::uint64_t v :
       {run.started, run.completed, run.failed, run.stats.reallocations,
        run.stats.full_solves, run.stats.solve_rounds,
        run.stats.coalesced_events}) {
    d.add(v);
  }
  d.add(run.fct_p50_s);
  d.add(run.fct_p99_s);
  d.add(sim::to_seconds(sim.now()));
  run.digest = d.hex();
  return run;
}

void check_run(const ChurnRun& run, const ChurnRun& first, Report& report,
               std::uint64_t& bad_runs) {
  report.attempted(run.started);
  const bool ok = run.completed == run.started &&
                  run.started == kFlows + kChurn &&
                  run.digest == first.digest;
  if (!ok) {
    report.failed(run.started - std::min(run.started, run.completed));
    ++bad_runs;
  }
}

double flow_events(const ChurnRun& r) {
  return static_cast<double>(r.started + r.completed + r.failed);
}

}  // namespace

void run_fabric_churn(const RunConfig& cfg, Report& report) {
  const double untraced_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  CpuRotor rotor;
  std::vector<double> batch_ms, setup_s;
  std::vector<ChurnRun> runs;
  const auto start = Clock::now();
  while (runs.empty() || seconds_between(start, Clock::now()) < untraced_s) {
    runs.push_back(churn(cfg.seed, batch_ms, nullptr, &rotor));
  }
  std::uint64_t bad_runs = 0;
  double events = 0.0, host_s = 0.0;
  for (const ChurnRun& r : runs) {
    check_run(r, runs.front(), report, bad_runs);
    setup_s.push_back(r.setup_s);
    events += flow_events(r);
    host_s += r.host_s;
  }
  report.check("flows_complete_and_repeat_digest", bad_runs == 0,
               std::to_string(bad_runs) + " of " +
                   std::to_string(runs.size()) + " repetitions broken");
  report.config("repetitions", static_cast<double>(runs.size()));
  report.config("fabric_digest", runs.front().digest);
  report.config("flows", static_cast<double>(kFlows));
  report.config("churn", static_cast<double>(kChurn));
  report.metric("setup_s", median(setup_s), "s");
  report_ops(report, batch_ms, events, host_s);
  if (!cfg.trace) return;

  Spans spans;
  std::vector<double> traced_ms;
  std::vector<ChurnRun> traced;
  const auto tstart = Clock::now();
  while (traced.empty() ||
         seconds_between(tstart, Clock::now()) < cfg.seconds - untraced_s) {
    traced.push_back(churn(cfg.seed, traced_ms, &spans, &rotor));
  }
  for (const ChurnRun& r : traced) check_run(r, runs.front(), report, bad_runs);
  report.check("traced_digest_unchanged", bad_runs == 0);

  std::vector<double> untraced_host, traced_host, us_per_round;
  for (const ChurnRun& r : runs) {
    untraced_host.push_back(r.host_s);
    us_per_round.push_back(r.host_s * 1e6 /
                           static_cast<double>(r.stats.solve_rounds));
  }
  for (const ChurnRun& r : traced) traced_host.push_back(r.host_s);
  const ChurnRun& r = runs.front();
  report.metric("bench.trace_overhead",
                median(traced_host) / median(untraced_host) - 1.0, "ratio");
  report.metric("net.reallocations",
                static_cast<double>(r.stats.reallocations), "count");
  report.metric("net.solve_rounds", static_cast<double>(r.stats.solve_rounds),
                "count");
  report.metric("net.coalesced_events",
                static_cast<double>(r.stats.coalesced_events), "count");
  report.metric("net.host_us_per_solve_round", median(us_per_round), "us");
  report.metric("net.fct_s.p50", r.fct_p50_s, "s");
  report.metric("net.fct_s.p99", r.fct_p99_s, "s");
  report.config("trace_file", spans.write(cfg));
}

std::string fabric_churn_digest(const RunConfig& cfg, Report& report) {
  std::vector<double> batch_ms;
  const ChurnRun run = churn(cfg.seed, batch_ms, nullptr, nullptr);
  std::uint64_t bad_runs = 0;
  check_run(run, run, report, bad_runs);
  report.check("fabric_churn.flows_complete", bad_runs == 0);
  return run.digest;
}

}  // namespace perfbench
