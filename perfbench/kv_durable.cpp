// kv_durable: one closed-loop client on a durable LsmStore over a
// FileDevice inside the run's output directory. 50/50 puts and point gets
// of 128-byte values over Zipf(0.99) keys, a group commit (sync) every 16
// puts, and a key space many times the 1 MiB memtable so flushes and
// compactions keep cycling. The unit operation is one commit group: the
// puts and gets since the previous sync, plus the sync that acks them.
//
// Checks: every get matches a model map of acked and pending versions;
// after the run the store is closed and reopened several times (the timed
// reopens give the recovery time) and every acked key must read back its
// last acked value. Query and SIMD layers are bypassed.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>

#include "sim/random.hpp"
#include "storage/device.hpp"
#include "storage/lsm.hpp"
#include "timed_device.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kKeys = 100'000;
constexpr std::size_t kValueBytes = 128;
constexpr double kZipf = 0.99;
constexpr int kPutsPerCommit = 16;
constexpr std::size_t kPreloadPerCommit = 1024;
// The exact storage counts (write_amp, flushes, ...) are taken after this
// many loop operations, so they depend on the seed only.
constexpr std::uint64_t kCheckpointOps = 200'000;
constexpr int kSetupReps = 5;
// Default memtable and fan-out, but only three levels: the last level
// merges into itself every 48 flushes, so the store settles into a short
// flush/compaction cycle and its peak memory does not depend on how many
// ops a run completes.
const rb::storage::LsmOptions kOptions{1 << 20, 4, 3};
// Latency samples are reserved up front: growing the vectors mid-run would
// add copies and make peak memory jump with the op count.
constexpr std::size_t kSampleReserve = 1 << 22;
constexpr int kReopens = 5;
// Layer-sum tolerance: median put self time + median device time inside the
// put vs the median put, all from the traced half.
constexpr double kPutSumTolerance = 0.25;

std::string key_of(std::size_t i) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "user%08zu", i);
  return buf;
}

/// Deterministic 128-byte value of (key, version).
void fill_value(std::string& out, std::size_t key, std::uint32_t version) {
  out.resize(kValueBytes);
  std::uint64_t s = mix64((static_cast<std::uint64_t>(key) << 32) | version);
  for (std::size_t i = 0; i < kValueBytes; i += 8) {
    s = mix64(s);
    std::memcpy(out.data() + i, &s, 8);
  }
}

/// The store, its device stack and the model of what was written.
struct Kv {
  std::string root;
  std::unique_ptr<rb::storage::FileDevice> file;
  std::unique_ptr<TimedDevice> timed;  // traced runs only
  std::unique_ptr<rb::storage::LsmStore> store;
  std::vector<std::string> keys;
  std::vector<std::uint32_t> version;  // last written version (0 = never)

  rb::storage::Device& device() {
    return timed ? static_cast<rb::storage::Device&>(*timed) : *file;
  }
};

void set_up(Kv& kv, const std::string& root, bool decorate) {
  kv.store.reset();
  std::filesystem::remove_all(root);
  kv.root = root;
  kv.file = std::make_unique<rb::storage::FileDevice>(root);
  kv.timed = decorate ? std::make_unique<TimedDevice>(*kv.file) : nullptr;
  kv.store = std::make_unique<rb::storage::LsmStore>(kOptions, kv.device());
  kv.keys.resize(kKeys);
  kv.version.assign(kKeys, 1);
  std::string value;
  for (std::size_t i = 0; i < kKeys; ++i) {
    kv.keys[i] = key_of(i);
    fill_value(value, i, 1);
    kv.store->put(kv.keys[i], value);
    if ((i + 1) % kPreloadPerCommit == 0) kv.store->sync();
  }
  kv.store->sync();
}

struct Exact {
  rb::storage::LsmStats stats;
  bool taken = false;
};

struct Phase {
  std::vector<double> group_ms, put_us, get_us, sync_us, stall_ms;
  // Traced phase only: per-put split into device time and the rest.
  std::vector<double> put_self_us, put_device_us;
  std::uint64_t appends_in_puts = 0;
  std::uint64_t ops = 0, puts = 0, gets = 0, bad = 0;
  double busy_s = 0.0;
};

std::size_t scatter(std::size_t rank) {
  // 7919 is coprime with kKeys: a bijection that spreads the hot ranks
  // over the key space instead of clustering them at its start.
  return (rank * 7919 + 13) % kKeys;
}

struct Client {
  explicit Client(std::uint64_t seed) : rng{mix64(seed)} {}
  rb::sim::Rng rng;
  rb::sim::ZipfDistribution zipf{kKeys, kZipf};
  std::uint64_t ops = 0;
};

/// Closed loop until `seconds` pass (and, when `exact` is given, until the
/// checkpoint is taken). Stops right after a sync, so every put is acked.
/// `spans` non-null = traced: the device totals split each put.
void run_loop(Kv& kv, Client& c, double seconds, Phase& ph, Exact* exact,
              Spans* spans, CpuRotor* rotor) {
  rb::storage::LsmStore& store = *kv.store;
  TimedDevice* dev = spans != nullptr ? kv.timed.get() : nullptr;
  std::string value;
  int pending_puts = 0;
  double group_ns = 0.0;
  const auto start = Clock::now();
  while (true) {
    const std::size_t k = scatter(c.zipf(c.rng));
    if (c.rng.uniform() < 0.5) {
      fill_value(value, k, ++kv.version[k]);
      std::string key = kv.keys[k];
      std::string val = value;
      const std::uint64_t merges =
          store.stats().flushes + store.stats().compactions;
      const double dev0 = dev != nullptr ? dev->total_ns() : 0.0;
      const std::uint64_t appends0 =
          dev != nullptr ? dev->append_totals.calls : 0;
      const auto t0 = Clock::now();
      store.put(std::move(key), std::move(val));
      const auto t1 = Clock::now();
      const double ns = ns_between(t0, t1);
      ph.put_us.push_back(ns * 1e-3);
      group_ns += ns;
      ++ph.puts;
      if (store.stats().flushes + store.stats().compactions != merges) {
        ph.stall_ms.push_back(ns * 1e-6);
      }
      if (dev != nullptr) {
        const double d = dev->total_ns() - dev0;
        ph.put_device_us.push_back(d * 1e-3);
        ph.put_self_us.push_back((ns - d) * 1e-3);
        ph.appends_in_puts += dev->append_totals.calls - appends0;
        spans->record("storage", "put", t0, t1);
      }
      ++pending_puts;
    } else {
      const auto t0 = Clock::now();
      const auto got = store.get(kv.keys[k]);
      const auto t1 = Clock::now();
      const double ns = ns_between(t0, t1);
      ph.get_us.push_back(ns * 1e-3);
      group_ns += ns;
      ++ph.gets;
      fill_value(value, k, kv.version[k]);
      if (!got || *got != value) ++ph.bad;
      if (spans != nullptr) spans->record("storage", "get", t0, t1);
    }
    ++ph.ops;
    if (exact != nullptr && !exact->taken && ++c.ops == kCheckpointOps) {
      exact->stats = store.stats();
      exact->taken = true;
    }
    if (pending_puts < kPutsPerCommit) continue;

    const auto s0 = Clock::now();
    store.sync();
    const auto s1 = Clock::now();
    const double ns = ns_between(s0, s1);
    if (spans != nullptr) spans->record("storage", "sync", s0, s1);
    ph.sync_us.push_back(ns * 1e-3);
    group_ns += ns;
    ph.group_ms.push_back(group_ns * 1e-6);
    ph.busy_s += group_ns * 1e-9;
    group_ns = 0.0;
    pending_puts = 0;
    if (rotor != nullptr) rotor->tick();
    const bool checkpointed = exact == nullptr || exact->taken;
    if (checkpointed && seconds_between(start, s1) >= seconds) break;
  }
}

/// Close the store and reopen it `reopens` times; the first reopen reads
/// back every key. Returns the reopen times (ms).
std::vector<double> reopen_and_verify(Kv& kv, int reopens, Report& report,
                                      rb::storage::RecoveryInfo& info,
                                      std::vector<double>& read_ms) {
  kv.store.reset();
  std::vector<double> ms;
  std::string value;
  for (int r = 0; r < reopens; ++r) {
    const double read0 = kv.timed ? kv.timed->read_totals.ns : 0.0;
    const auto t0 = Clock::now();
    auto store = std::make_unique<rb::storage::LsmStore>(
        kOptions, kv.device());
    ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    if (kv.timed) read_ms.push_back((kv.timed->read_totals.ns - read0) * 1e-6);
    if (r > 0) continue;
    info = store->recovery_info();
    std::uint64_t lost = 0;
    for (std::size_t k = 0; k < kKeys; ++k) {
      fill_value(value, k, kv.version[k]);
      const auto got = store->get(kv.keys[k]);
      if (!got || *got != value) ++lost;
    }
    report.attempted(kKeys);
    report.failed(lost);
    report.check("recovered_acked_values", lost == 0,
                 std::to_string(lost) + " acked keys lost or stale");
  }
  return ms;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

void report_exact(Report& report, const rb::storage::LsmStats& st) {
  report.metric("storage.write_amp", st.write_amplification(), "ratio");
  report.metric("storage.flushes", static_cast<double>(st.flushes), "count");
  report.metric("storage.compactions", static_cast<double>(st.compactions),
                "count");
  report.metric("storage.wal_bytes_per_user_byte",
                ratio(st.bytes_written_wal, st.bytes_written_user), "ratio");
  report.metric("storage.internal_bytes_per_user_byte",
                ratio(st.bytes_written_internal, st.bytes_written_user),
                "ratio");
  report.metric("storage.sstable_probes_per_get",
                ratio(st.sstable_probes, st.gets), "ratio");
  report.metric("storage.bloom_skip_ratio",
                ratio(st.bloom_skips, st.sstable_probes + st.bloom_skips),
                "ratio");
}

}  // namespace

void run_kv_durable(const RunConfig& cfg, Report& report) {
  const std::string root = kOutDir + "/kv_durable.dev";
  CpuRotor rotor;
  Kv kv;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupReps; ++r) {
    rotor.tick();
    const auto t0 = Clock::now();
    set_up(kv, root, cfg.trace);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  report.config("device_root", root);
  report.config("device_fs", filesystem_of(root));
  report.config("keys", static_cast<double>(kKeys));
  report.config("key_bytes", static_cast<double>(kv.keys[0].size()));
  report.config("value_bytes", static_cast<double>(kValueBytes));
  report.config("puts_per_commit", static_cast<double>(kPutsPerCommit));

  Client client{cfg.seed};
  Exact exact;
  Phase base;
  base.put_us.reserve(kSampleReserve);
  base.get_us.reserve(kSampleReserve);
  run_loop(kv, client, cfg.trace ? cfg.seconds / 2 : cfg.seconds, base,
           &exact, nullptr, &rotor);
  report.attempted(base.ops);
  report.failed(base.bad);
  report.check("gets_match_model", base.bad == 0);
  report.metric("setup_s", median(setup_s), "s");
  report_ops(report, base.group_ms, static_cast<double>(base.ops),
             base.busy_s);
  rb::storage::RecoveryInfo info;
  std::vector<double> read_ms;
  if (!cfg.trace) {
    reopen_and_verify(kv, 1, report, info, read_ms);
    std::filesystem::remove_all(root);
    return;
  }

  Spans spans;
  Phase traced;
  kv.timed->set_timing(true);
  run_loop(kv, client, cfg.seconds / 2, traced, nullptr, &spans, &rotor);
  report.attempted(traced.ops);
  report.failed(traced.bad);
  report.check("traced_gets_match_model", traced.bad == 0);
  const std::vector<double> recovery_ms =
      reopen_and_verify(kv, kReopens, report, info, read_ms);
  std::filesystem::remove_all(root);

  report.metric("bench.trace_overhead",
                median(traced.group_ms) / median(base.group_ms) - 1.0,
                "ratio");
  const double put_p50 = median(base.put_us);
  report.metric("storage.put_us.p50", put_p50, "us");
  report.metric("storage.put_us.p99", quantile(base.put_us, 0.99), "us");
  report.metric("storage.get_us.p50", median(base.get_us), "us");
  report.metric("storage.get_us.p99", quantile(base.get_us, 0.99), "us");
  report.metric("storage.sync_us", median(traced.sync_us), "us");
  report.metric("storage.flush_stall_ms", median(base.stall_ms), "ms");
  const double self_us = median(traced.put_self_us);
  const double device_us = median(traced.put_device_us);
  report.metric("storage.put_self_us", self_us, "us");
  report.metric("device.append_us", device_us, "us");
  report.metric("device.appends_per_put",
                ratio(traced.appends_in_puts, traced.puts), "ratio");
  std::vector<double> sync_us;
  for (const double ns : kv.timed->sync_ns()) sync_us.push_back(ns * 1e-3);
  report.metric("device.sync_us", median(sync_us), "us");
  report_exact(report, exact.stats);
  report.metric("storage.recovery_ms", median(recovery_ms), "ms");
  report.metric("device.read_ms", median(read_ms), "ms");
  report.metric("recovery.wal_records_replayed",
                static_cast<double>(info.wal_records_replayed), "count");
  report.metric("recovery.runs_loaded", static_cast<double>(info.runs_loaded),
                "count");
  report.sum_check("put_layers", self_us + device_us, median(traced.put_us),
                   kPutSumTolerance);
  report.config("trace_file", spans.write(cfg));
}

std::string kv_durable_digest(const RunConfig& cfg, Report& report) {
  // Fixed work: set up, then exactly kCheckpointOps loop operations (the
  // loop stops at the first sync after both the checkpoint and 0 s).
  const std::string root = kOutDir + "/kv_durable.digest.dev";
  Kv kv;
  set_up(kv, root, false);
  Client client{cfg.seed};
  Exact exact;
  Phase ph;
  run_loop(kv, client, 0.0, ph, &exact, nullptr, nullptr);
  report.attempted(ph.ops);
  report.failed(ph.bad);
  rb::storage::RecoveryInfo info;
  std::vector<double> read_ms;
  reopen_and_verify(kv, 1, report, info, read_ms);
  std::filesystem::remove_all(root);
  const auto& st = exact.stats;
  Digest d;
  for (const std::uint64_t v :
       {st.puts, st.gets, st.flushes, st.compactions, st.bytes_written_user,
        st.bytes_written_internal, st.bytes_written_wal, st.sstable_probes,
        st.bloom_skips, info.wal_records_replayed, info.runs_loaded}) {
    d.add(v);
  }
  for (const std::uint32_t v : kv.version) d.add(static_cast<std::uint64_t>(v));
  return d.hex();
}

}  // namespace perfbench
