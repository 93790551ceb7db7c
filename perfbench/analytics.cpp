// analytics_lsm / analytics_resident: the ROADMAP query plan
//   lineitems ⋈ orders → filter_between(amount) → group_by(customer, sum)
//   → order_by(revenue desc) → limit(10)
// run in a closed loop over two sources that feed the same operators:
// the lineitems table stored in an LsmStore (scan + row decode + operators)
// or the resident Table (operators only). A storage or decode change moves
// only the LSM side; an operator or SIMD change moves the resident side
// most. Every result must be byte-identical to Query::run() computed
// untimed at set-up.

#include <limits>
#include <map>
#include <memory>
#include <optional>

#include "obs/metrics.hpp"
#include "query/exec/lsm_table.hpp"
#include "query/exec/plan.hpp"
#include "query/table.hpp"
#include "storage/lsm.hpp"
#include "workloads.hpp"
#include "workloads/generators.hpp"

namespace perfbench {
namespace {

using rb::query::Aggregate;
using rb::query::Query;
using rb::query::Table;
using rb::query::exec::ExecOptions;
using rb::query::exec::ExecStats;
using rb::query::exec::Plan;
using rb::query::exec::PlanBuilder;

constexpr std::size_t kOrders = 20'000;
constexpr double kItemsPerOrder = 4.0;
constexpr double kOrderSkew = 0.8;
constexpr std::int64_t kMinAmount = 20'000;
constexpr const char* kTable = "lineitems";
constexpr auto kSetupPeriod = std::chrono::seconds{1};
// Layer-sum tolerance: scan + decode + resident query vs the LSM query, all
// timed in the same interleaved traced iterations.
constexpr double kQuerySumTolerance = 0.25;
// The simd row counters the engine publishes (accel.simd_rows{kernel}).
constexpr const char* kSimdKernels[] = {"select_between", "hash_probe",
                                        "group_probe", "topk_sift"};

struct Tables {
  Table orders;     // order_id, customer
  Table lineitems;  // order_id, amount
};

Tables make_tables(std::uint64_t seed) {
  const auto rel = rb::workloads::order_tables(kOrders, kItemsPerOrder,
                                               kOrderSkew, seed);
  Tables t;
  std::vector<std::int64_t> oid, cust, lid, amount;
  for (const auto& r : rel.orders) {
    oid.push_back(static_cast<std::int64_t>(r.key));
    cust.push_back(static_cast<std::int64_t>(r.payload));
  }
  for (const auto& r : rel.lineitems) {
    lid.push_back(static_cast<std::int64_t>(r.key));
    amount.push_back(static_cast<std::int64_t>(r.payload));
  }
  t.orders.add_int_column("order_id", std::move(oid));
  t.orders.add_int_column("customer", std::move(cust));
  t.lineitems.add_int_column("order_id", std::move(lid));
  t.lineitems.add_int_column("amount", std::move(amount));
  return t;
}

template <typename Builder>
Plan finish_plan(Builder builder, const Tables& t) {
  return builder.join(t.orders, "order_id", "order_id")
      .filter_between("amount", kMinAmount,
                      std::numeric_limits<std::int64_t>::max())
      .group_by("customer", Aggregate::kSum, "amount", "revenue")
      .order_by("revenue", true)
      .limit(10)
      .build();
}

Table reference_result(const Tables& t) {
  Query q{t.lineitems};
  q.join(t.orders, "order_id", "order_id")
      .where_between("amount", kMinAmount,
                     std::numeric_limits<std::int64_t>::max())
      .group_by("customer", Aggregate::kSum, "amount", "revenue")
      .order_by("revenue", true)
      .limit(10);
  return q.run();
}

bool tables_equal(const Table& a, const Table& b) {
  if (a.row_count() != b.row_count()) return false;
  if (a.column_names() != b.column_names()) return false;
  for (const auto& col : a.column_names()) {
    if (a.column_type(col) != b.column_type(col)) return false;
    if (a.column_type(col) == rb::query::ColumnType::kInt) {
      if (a.ints(col) != b.ints(col)) return false;
    } else if (a.strings(col) != b.strings(col)) {
      return false;
    }
  }
  return true;
}

void digest_table(Digest& d, const Table& t) {
  d.add(static_cast<std::uint64_t>(t.row_count()));
  for (const auto& col : t.column_names()) {
    d.add(col);
    if (t.column_type(col) == rb::query::ColumnType::kInt) {
      for (const std::int64_t v : t.ints(col)) d.add(v);
    } else {
      for (const auto& s : t.strings(col)) d.add(s);
    }
  }
}

/// Everything the closed loop needs; built by one timed set-up.
struct Setup {
  Tables tables;
  std::unique_ptr<rb::storage::LsmStore> store;  // LSM side only
  std::optional<Plan> plan;
  double store_table_ms = 0.0;
};

Setup set_up(std::uint64_t seed, bool lsm_side) {
  Setup s;
  s.tables = make_tables(seed);
  if (lsm_side) {
    s.store = std::make_unique<rb::storage::LsmStore>();
    const auto t0 = Clock::now();
    rb::query::exec::store_table(*s.store, kTable, s.tables.lineitems);
    s.store_table_ms = seconds_between(t0, Clock::now()) * 1e3;
    s.plan = finish_plan(PlanBuilder(*s.store, kTable), s.tables);
  } else {
    s.plan = finish_plan(PlanBuilder(s.tables.lineitems), s.tables);
  }
  return s;
}

struct Phase {
  std::vector<double> op_ms;
  double busy_s = 0.0;
  std::uint64_t ok = 0;
  std::uint64_t bad = 0;
};

void run_query(const Plan& plan, const Table& reference,
               const ExecOptions& opts, ExecStats* stats, Phase& phase) {
  const auto t0 = Clock::now();
  const Table result = plan.run(opts, stats);
  const auto t1 = Clock::now();
  const double ns = ns_between(t0, t1);
  phase.op_ms.push_back(ns * 1e-6);
  phase.busy_s += ns * 1e-9;
  if (tables_equal(result, reference)) {
    ++phase.ok;
  } else {
    ++phase.bad;
  }
}

void run_analytics(const RunConfig& cfg, Report& report, bool lsm_side) {
  // Set-up: generate both tables, store lineitems into the LSM (LSM side),
  // build the plan. It is timed once before the loop and again every
  // kSetupPeriod inside it (those copies are discarded), so the setup_s
  // median sees the same machine states as the queries.
  CpuRotor rotor;
  std::vector<double> setup_s, store_ms;
  const auto timed_set_up = [&] {
    const auto t0 = Clock::now();
    Setup s = set_up(cfg.seed, lsm_side);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    store_ms.push_back(s.store_table_ms);
    return s;
  };
  const Setup setup = timed_set_up();
  const Tables& tables = setup.tables;
  const Plan& plan = *setup.plan;
  const Table reference = reference_result(tables);  // untimed oracle
  report.check("reference_nonempty", reference.row_count() == 10);

  report.config("orders_rows", static_cast<double>(tables.orders.row_count()));
  report.config("lineitems_rows",
                static_cast<double>(tables.lineitems.row_count()));
  report.config("source", lsm_side ? "lsm" : "resident");

  const double untraced_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  Phase base;
  const ExecOptions plain;
  const auto start = Clock::now();
  auto next_setup = start + kSetupPeriod;
  while (seconds_between(start, Clock::now()) < untraced_s) {
    rotor.tick();
    if (Clock::now() >= next_setup) {
      timed_set_up();
      next_setup += kSetupPeriod;
    }
    run_query(plan, reference, plain, nullptr, base);
  }
  report.attempted(base.ok + base.bad);
  report.failed(base.bad);
  report.check("results_identical_to_interpreter", base.bad == 0);
  report.metric("setup_s", median(setup_s), "s");
  report_ops(report, base.op_ms, static_cast<double>(base.op_ms.size()),
             base.busy_s);
  if (!cfg.trace) return;

  // Traced half: obs counters on (simd row counts), per-operator busy
  // timing through a disabled recorder, and spans around every call into
  // the query and storage layers.
  Spans spans;
  rb::obs::set_enabled(true);
  rb::obs::Registry::global().reset_for_test();
  rb::obs::TraceRecorder op_timer;  // non-null trace => operators timed
  ExecOptions timed;
  timed.trace = &op_timer;
  Phase traced, resident;
  std::vector<double> scan_ms, decode_ms;
  std::map<std::string, std::vector<double>> busy_ms;
  ExecStats stats;
  std::optional<Plan> resident_plan;
  if (lsm_side) {
    resident_plan = finish_plan(PlanBuilder(tables.lineitems), tables);
  }
  std::uint64_t short_scans = 0;
  const auto lo = std::string{"t!"} + kTable + "!r!";
  const auto hi = std::string{"t!"} + kTable + "!r\"";
  const auto tstart = Clock::now();
  while (seconds_between(tstart, Clock::now()) < cfg.seconds - untraced_s) {
    rotor.tick();
    const auto q0 = Clock::now();
    run_query(plan, reference, timed, &stats, traced);
    spans.record("query", lsm_side ? "lsm_query" : "resident_query", q0,
                 Clock::now());
    // busy_ns includes the downstream pushes each operator makes.
    for (const auto& op : stats.operators) {
      busy_ms[op.op].push_back(static_cast<double>(op.busy_ns) * 1e-6);
    }
    if (!lsm_side) continue;
    // Storage layer alone, then scan + decode, then the same operators
    // over the decoded resident table.
    const auto s0 = Clock::now();
    const auto rows = setup.store->scan(lo, hi);
    const auto s1 = Clock::now();
    spans.record("storage", "scan", s0, s1);
    const Table loaded = rb::query::exec::load_table(*setup.store, kTable);
    const auto s2 = Clock::now();
    spans.record("query", "load_table", s1, s2);
    const double scan = ns_between(s0, s1);
    scan_ms.push_back(scan * 1e-6);
    decode_ms.push_back((ns_between(s1, s2) - scan) * 1e-6);
    if (rows.size() != tables.lineitems.row_count()) ++short_scans;
    const auto r0 = Clock::now();
    run_query(*resident_plan, reference, plain, nullptr, resident);
    spans.record("query", "resident_query", r0, Clock::now());
  }
  rb::obs::set_enabled(false);
  report.attempted(traced.ok + traced.bad + resident.ok + resident.bad +
                   scan_ms.size());
  report.failed(traced.bad + resident.bad + short_scans);
  report.check("traced_results_identical", traced.bad + resident.bad == 0);
  report.check("lsm_scan_returns_every_row", short_scans == 0);

  const double traced_ms = median(traced.op_ms);
  const double base_ms = median(base.op_ms);
  report.metric("bench.trace_overhead", traced_ms / base_ms - 1.0, "ratio");
  for (const auto& [op, v] : busy_ms) {
    report.metric("query.op." + op + ".busy_ms", median(v), "ms");
  }
  for (const auto& op : stats.operators) {
    report.metric("query.op." + op.op + ".rows_in",
                  static_cast<double>(op.rows_in), "rows");
    report.metric("query.op." + op.op + ".rows_out",
                  static_cast<double>(op.rows_out), "rows");
  }
  const double queries = static_cast<double>(traced.op_ms.size() +
                                             resident.op_ms.size());
  for (const char* kernel : kSimdKernels) {
    const double rows =
        rb::obs::Registry::global()
            .counter("accel.simd_rows", {{"kernel", kernel}})
            .value();
    report.metric(std::string{"accel.simd_rows."} + kernel, rows / queries,
                  "rows/query");
  }
  if (lsm_side) {
    report.metric("query.store_table_ms", median(store_ms), "ms");
    report.metric("storage.scan_ms", median(scan_ms), "ms");
    report.metric("query.lsm_decode_ms", median(decode_ms), "ms");
    const double resident_ms = median(resident.op_ms);
    report.metric("query.resident_ms", resident_ms, "ms");
    report.sum_check("lsm_query_layers",
                     median(scan_ms) + median(decode_ms) + resident_ms,
                     traced_ms, kQuerySumTolerance);
  }
  report.config("trace_file", spans.write(cfg));
}

}  // namespace

void run_analytics_lsm(const RunConfig& cfg, Report& report) {
  run_analytics(cfg, report, true);
}

void run_analytics_resident(const RunConfig& cfg, Report& report) {
  run_analytics(cfg, report, false);
}

std::string analytics_digest(const RunConfig& cfg, Report& report) {
  const Setup lsm = set_up(cfg.seed, true);
  const Setup resident = set_up(cfg.seed, false);
  const Table reference = reference_result(lsm.tables);
  const Table from_lsm = lsm.plan->run();
  const Table from_resident = resident.plan->run();
  report.check("analytics.lsm_identical", tables_equal(from_lsm, reference));
  report.check("analytics.resident_identical",
               tables_equal(from_resident, reference));
  report.attempted(2);
  Digest d;
  digest_table(d, lsm.tables.lineitems);
  digest_table(d, from_lsm);
  digest_table(d, from_resident);
  const auto& st = lsm.store->stats();
  d.add(st.flushes);
  d.add(st.compactions);
  d.add(st.bytes_written_internal);
  return d.hex();
}

}  // namespace perfbench
