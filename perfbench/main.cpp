// End-to-end benchmark program for the rethinkbig library stack.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --selftest --seed <n> --heldout-seed <m>
//
// A run prints a one-line JSON report as its last stdout line: correct,
// attempted, failed, every measured metric with its unit, provenance and
// every output check. perfbench/run.py builds this binary, selects the
// metrics BENCHMARK.json declares and prints the final result line.
//
// --selftest runs every workload's fixed-work digest twice with --seed and
// once with --heldout-seed: the first two must agree exactly (result
// hashes, simulated digests, exact storage and allocator counts), and every
// output check must pass on all three.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>

#include "workloads.hpp"

namespace perfbench {

void report_ops(Report& report, const std::vector<double>& op_ms, double ops,
                double busy_s) {
  report.metric("ops_per_s", busy_s > 0.0 ? ops / busy_s : 0.0, "1/s");
  // Neighbours on a shared host slow a varying share of the operations by
  // up to ~1.5x, which moves the median by up to 30% between busy and quiet
  // periods. The 10th percentile tracks the program's own speed, so it is
  // the gated latency; the median is reported as a layer metric.
  report.metric("op_ms.p10", quantile(op_ms, 0.10), "ms");
  report.metric("op_ms.p50", quantile(op_ms, 0.50), "ms");
  report.metric("op_ms.p95", quantile(op_ms, 0.95), "ms");
  report.config("op_samples", static_cast<double>(op_ms.size()));
  // Taken at the end of the measured phase, before any verification tail
  // (such as kv_durable's reopen) whose memory depends on the end state.
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n       perfbench --selftest --seed <n> "
               "--heldout-seed <m>\nworkloads:");
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

int selftest(std::uint64_t seed, std::uint64_t heldout) {
  Report report;
  bool ok = true;
  for (const Workload& w : workloads()) {
    if (w.digest == nullptr) continue;
    RunConfig cfg;
    cfg.workload = w.name;
    cfg.seed = seed;
    const std::string a = w.digest(cfg, report);
    const std::string b = w.digest(cfg, report);
    cfg.seed = heldout;
    const std::string c = w.digest(cfg, report);
    const bool same = a == b;
    ok = ok && same;
    std::printf("%-20s seed %llu: %s %s  held-out seed %llu: %s\n", w.name,
                static_cast<unsigned long long>(seed), a.c_str(),
                same ? "== (repeat identical)" : ("!= " + b).c_str(),
                static_cast<unsigned long long>(heldout), c.c_str());
  }
  ok = ok && report.correct();
  std::printf("%s\n", report.to_json().c_str());
  std::printf("selftest: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  bool self = false;
  std::uint64_t heldout = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      cfg.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--heldout-seed" && has_value) {
      heldout = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      cfg.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      cfg.trace = std::string_view{argv[++i]} == "1";
    } else if (arg == "--selftest") {
      self = true;
    } else {
      return usage();
    }
  }
  try {
    std::filesystem::create_directories(kOutDir);
    if (self) return selftest(cfg.seed, heldout == 0 ? cfg.seed + 1 : heldout);
    const Workload* w = find_workload(cfg.workload);
    if (w == nullptr || cfg.seconds <= 0.0) return usage();
    Report report;
    add_provenance(report, cfg);
    w->run(cfg, report);
    std::printf("%s\n", report.to_json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
