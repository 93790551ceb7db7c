// serve_sim: the simulated serving plane. A FrontDoor with 8 replicas at
// R=3 on leaf-spine(3,4,3), open-loop Poisson arrivals over Zipf(0.99) keys
// at 0.9x estimated capacity, seeded replica-host churn, and the retry
// budget, circuit breakers and hedging all on. It measures the host cost of
// simulating the plane: the sim event queue, serve, the quantile trackers
// and (in the traced half) the obs tracer. Storage and query are bypassed.
//
// The unit operation is one step batch of kBatchEvents simulator events;
// the throughput is simulated requests per host second. Every repetition
// simulates the same inputs, so its simulated digest must match the first
// repetition's, and the SLO ledger completed+rejected+failed==issued must
// hold. Simulated results are layer metrics: they are deterministic and
// must not move under a host-time change.

#include "faults/injector.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "node/device.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "serve/frontdoor.hpp"
#include "sim/simulator.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace rb;

constexpr std::size_t kBatchEvents = 4096;
constexpr sim::SimTime kHorizon = sim::kSecond;
constexpr double kLoad = 0.9;  // share of estimated_capacity_qps

serve::FrontDoorParams make_params(std::uint64_t seed) {
  serve::FrontDoorParams p;
  p.replicas = 8;
  p.replication = 3;
  p.key_universe = 10'000;
  p.zipf_s = 0.99;
  p.read_fraction = 0.9;
  p.horizon = kHorizon;
  p.replica.device = node::find_device(node::DeviceKind::kCpu);
  p.replica.batch_overhead = 500 * sim::kMicrosecond;
  p.replica.per_request = node::KernelProfile{2.0e5, 6.0e5, 1.0, 512.0};
  p.replica.queue_limit = 32;
  p.replica.batch_max = 8;
  p.offered_qps = kLoad * serve::estimated_capacity_qps(p, p.replicas);
  p.resilience.request_timeout = 80 * sim::kMillisecond;
  p.resilience.attempt_timeout = 20 * sim::kMillisecond;
  p.resilience.budget.enabled = true;
  p.resilience.budget.ratio = 0.2;
  p.resilience.budget.burst = 50.0;
  p.resilience.breaker.enabled = true;
  p.resilience.hedge.enabled = true;
  p.resilience.hedge.min_delay = 2 * sim::kMillisecond;
  p.seed = mix64(seed);
  return p;
}

struct SimRun {
  double setup_s = 0.0;
  double preload_ms = 0.0;
  double host_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t issued = 0, completed = 0, rejected = 0, failed = 0;
  std::uint64_t retries = 0;
  serve::ResilienceStats rs;
  double p99_ms = 0.0;
  double availability = 0.0;
  bool ledger_ok = false;
  std::string digest;
};

/// One simulation of the plane. `batch_ms` collects the host time of each
/// step batch; `spans` non-null records them.
SimRun simulate(std::uint64_t seed, std::vector<double>& batch_ms,
                Spans* spans, CpuRotor* rotor) {
  SimRun run;
  const auto t0 = Clock::now();
  net::Topology topo = net::make_leaf_spine(3, 4, 3);
  sim::Simulator sim;
  const net::Router router{topo};
  const serve::FrontDoorParams params = make_params(seed);
  serve::FrontDoor door{sim, topo, router, params};
  const auto p0 = Clock::now();
  door.preload();
  const auto t1 = Clock::now();
  run.setup_s = seconds_between(t0, t1);
  run.preload_ms = seconds_between(p0, t1) * 1e3;
  if (spans != nullptr) spans->record("serve", "setup", t0, t1);

  faults::FaultInjector injector{
      sim, topo,
      serve::make_host_churn_plan(door.replica_hosts(), /*mtbf_s=*/1.5,
                                  /*mttr_s=*/0.3, params.horizon,
                                  mix64(seed ^ 0xc4u))};
  injector.on_event([&door](const faults::FaultEvent& e) {
    door.handle_fault(e);
  });
  injector.arm();
  door.start();
  while (true) {
    if (rotor != nullptr) rotor->tick();
    std::size_t n = 0;
    const auto b0 = Clock::now();
    while (n < kBatchEvents && sim.step()) ++n;
    const auto b1 = Clock::now();
    if (n == 0) break;
    run.events += n;
    run.host_s += seconds_between(b0, b1);
    if (spans != nullptr) spans->record("sim", "step_batch", b0, b1);
    if (n < kBatchEvents) break;  // a short last batch is not a unit op
    batch_ms.push_back(seconds_between(b0, b1) * 1e3);
  }

  const serve::SloAccountant& slo = door.slo();
  run.issued = slo.issued();
  run.completed = slo.completed();
  run.rejected = slo.rejected();
  run.failed = slo.failed();
  run.retries = slo.retries();
  run.rs = door.resilience_stats();
  run.p99_ms = slo.latency_seconds().empty()
                   ? 0.0
                   : slo.latency_seconds().p99() * 1e3;
  run.availability = slo.availability();
  run.ledger_ok = slo.ledger_ok() &&
                  run.completed + run.rejected + run.failed == run.issued;
  Digest d;
  for (const std::uint64_t v :
       {run.events, run.issued, run.completed, run.rejected, run.failed,
        run.retries, run.rs.retries_budgeted, run.rs.deadline_drops,
        run.rs.attempt_timeouts, run.rs.hedges_issued, run.rs.hedges_won,
        run.rs.breaker_opens, run.rs.breaker_denials,
        run.rs.wasted_responses}) {
    d.add(v);
  }
  d.add(run.p99_ms);
  d.add(run.availability);
  run.digest = d.hex();
  return run;
}

/// Checks one repetition against the ledger and the first repetition.
void check_run(const SimRun& run, const SimRun& first, Report& report,
               std::uint64_t& bad_runs) {
  report.attempted(run.issued);
  const bool ok = run.ledger_ok && run.digest == first.digest;
  if (!ok) {
    report.failed(run.issued);
    ++bad_runs;
  }
}

constexpr const char* kBands[][2] = {{"p50", "p0-50"}, {"p99", "p99-99.9"}};

}  // namespace

void run_serve_sim(const RunConfig& cfg, Report& report) {
  const double untraced_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  CpuRotor rotor;
  std::vector<double> batch_ms, setup_s, preload_ms, ns_per_event;
  std::vector<SimRun> runs;
  const auto start = Clock::now();
  while (runs.empty() ||
         seconds_between(start, Clock::now()) < untraced_s) {
    runs.push_back(simulate(cfg.seed, batch_ms, nullptr, &rotor));
  }
  std::uint64_t bad_runs = 0;
  double issued = 0.0, host_s = 0.0;
  for (const SimRun& r : runs) {
    check_run(r, runs.front(), report, bad_runs);
    setup_s.push_back(r.setup_s);
    preload_ms.push_back(r.preload_ms);
    ns_per_event.push_back(r.host_s * 1e9 / static_cast<double>(r.events));
    issued += static_cast<double>(r.issued);
    host_s += r.host_s;
  }
  report.check("slo_ledger_and_repeat_digest", bad_runs == 0,
               std::to_string(bad_runs) + " of " +
                   std::to_string(runs.size()) + " repetitions broken");
  report.config("repetitions", static_cast<double>(runs.size()));
  report.config("sim_digest", runs.front().digest);
  report.metric("setup_s", median(setup_s), "s");
  report_ops(report, batch_ms, issued, host_s);
  if (!cfg.trace) return;

  // Traced half: obs metrics and the causal RequestTracer on, plus spans
  // around every step batch. Same inputs, so the digest must not move.
  Spans spans;
  auto& tracer = obs::RequestTracer::global();
  obs::ExemplarParams ep;
  ep.max_exemplars = 32;
  ep.latency_threshold_s = 0.040;
  tracer.set_params(ep);
  obs::set_enabled(true);
  tracer.set_enabled(true);
  std::vector<double> traced_ms;
  std::vector<SimRun> traced;
  std::vector<obs::BandDecomposition> bands;
  const auto tstart = Clock::now();
  while (traced.empty() ||
         seconds_between(tstart, Clock::now()) < cfg.seconds - untraced_s) {
    tracer.clear();
    traced.push_back(simulate(cfg.seed, traced_ms, &spans, &rotor));
    bands = tracer.band_summary();
  }
  obs::TraceRecorder exemplars;
  exemplars.set_enabled(true);
  tracer.export_chrome(exemplars);
  exemplars.write_chrome_json(kOutDir + "/serve_sim.exemplars.json");
  tracer.set_enabled(false);
  tracer.clear();
  obs::set_enabled(false);
  for (const SimRun& r : traced) check_run(r, runs.front(), report, bad_runs);
  report.check("traced_digest_unchanged", bad_runs == 0);

  const SimRun& r = runs.front();
  std::vector<double> untraced_host, traced_host;
  for (const SimRun& x : runs) untraced_host.push_back(x.host_s);
  for (const SimRun& x : traced) traced_host.push_back(x.host_s);
  report.metric("bench.trace_overhead",
                median(traced_host) / median(untraced_host) - 1.0, "ratio");
  report.metric("sim.events", static_cast<double>(r.events), "count");
  report.metric("sim.host_ns_per_event", median(ns_per_event), "ns");
  report.metric("serve.preload_ms", median(preload_ms), "ms");
  report.metric("serve.issued", static_cast<double>(r.issued), "count");
  report.metric("serve.completed", static_cast<double>(r.completed), "count");
  report.metric("serve.rejected", static_cast<double>(r.rejected), "count");
  report.metric("serve.failed", static_cast<double>(r.failed), "count");
  report.metric("serve.retries", static_cast<double>(r.retries), "count");
  report.metric("serve.hedges", static_cast<double>(r.rs.hedges_issued),
                "count");
  report.metric("serve.wasted_responses",
                static_cast<double>(r.rs.wasted_responses), "count");
  const double attempts = static_cast<double>(r.issued + r.retries +
                                              r.rs.hedges_issued);
  report.metric("serve.useful_attempt_ratio",
                static_cast<double>(r.completed) / attempts, "ratio");
  report.metric("serve.sim_p99_ms", r.p99_ms, "ms");
  report.metric("serve.availability", r.availability, "ratio");
  for (const auto& [label, band] : kBands) {
    for (const obs::BandDecomposition& b : bands) {
      if (std::string_view{b.band} != band) continue;
      const std::string p = std::string{"serve.cp."} + label + ".";
      report.metric(p + "queue_share", b.queue_share, "ratio");
      report.metric(p + "service_share", b.service_share, "ratio");
      report.metric(p + "network_share", b.network_share, "ratio");
      report.metric(p + "backoff_share", b.backoff_share, "ratio");
      report.metric(p + "hedge_wait_share", b.hedge_wait_share, "ratio");
      report.metric(p + "other_share", b.other_share, "ratio");
    }
  }
  report.config("trace_file", spans.write(cfg));
}

std::string serve_sim_digest(const RunConfig& cfg, Report& report) {
  std::vector<double> batch_ms;
  const SimRun run = simulate(cfg.seed, batch_ms, nullptr, nullptr);
  std::uint64_t bad_runs = 0;
  check_run(run, run, report, bad_runs);
  report.check("serve_sim.slo_ledger", bad_runs == 0);
  return run.digest;
}

}  // namespace perfbench
