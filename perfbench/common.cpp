#include "common.hpp"

#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "accel/simd/simd.hpp"
#include "obs/json.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::config(const std::string& key, const std::string& value) {
  config_text_.emplace_back(key, value);
}

void Report::config(const std::string& key, double value) {
  config_num_.emplace_back(key, value);
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
  if (!ok) correct_ = false;
}

void Report::sum_check(const std::string& name, double parts, double whole,
                       double tolerance) {
  const double residual = whole > 0.0 ? (parts - whole) / whole : 1.0;
  char detail[160];
  std::snprintf(detail, sizeof detail,
                "parts %.6g vs whole %.6g: residual %+.3f (tolerance %.2f)",
                parts, whole, residual, tolerance);
  check(name, std::fabs(residual) <= tolerance, detail);
  metric("check." + name + ".residual", residual, "ratio");
}

std::string Report::to_json() const {
  rb::obs::JsonWriter w;
  w.begin_object();
  w.key("correct").value(correct());
  w.key("attempted").value(attempted_);
  w.key("failed").value(failed_);
  w.key("metrics").begin_object();
  for (const Metric& m : metrics_) {
    w.key(m.name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.key("config").begin_object();
  for (const auto& [k, v] : config_text_) w.key(k).value(v);
  for (const auto& [k, v] : config_num_) w.key(k).value(v);
  w.end_object();
  w.key("checks").begin_array();
  for (const Check& c : checks_) {
    w.begin_object();
    w.key("name").value(c.name);
    w.key("ok").value(c.ok);
    w.key("detail").value(c.detail);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

void Digest::add(std::string_view bytes) {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ULL;
  }
  add(static_cast<std::uint64_t>(bytes.size()));
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 1099511628211ULL;
  }
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

std::string Digest::hex() const {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

Spans::Spans() : epoch_{Clock::now()} {
  recorder_.set_enabled(true);
}

void Spans::record(std::string_view layer, std::string_view name,
                   Clock::time_point start, Clock::time_point end,
                   std::vector<rb::obs::TraceArg> args) {
  if (recorded_ >= kMaxEvents) return;
  ++recorded_;
  const auto ps = [this](Clock::time_point t) {
    return static_cast<std::int64_t>(
        std::chrono::duration<double, std::pico>(t - epoch_).count());
  };
  recorder_.complete(layer, name, ps(start), ps(end) - ps(start),
                     std::move(args));
}

std::string Spans::write(const RunConfig& cfg) const {
  std::filesystem::create_directories(kOutDir);
  const std::string path = kOutDir + "/" + cfg.workload + ".trace.json";
  recorder_.write_chrome_json(path);
  return path;
}

CpuRotor::CpuRotor() : last_{Clock::now()} {
  if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
  }
}

CpuRotor::~CpuRotor() {
  if (cpus_.size() > 1) sched_setaffinity(0, sizeof original_, &original_);
}

void CpuRotor::tick() {
  if (cpus_.size() < 2) return;
  const auto now = Clock::now();
  if (now - last_ < kInterval) return;
  last_ = now;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_], &set);
  next_ = (next_ + 1) % cpus_.size();
  sched_setaffinity(0, sizeof set, &set);  // best effort
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

namespace {

std::string cpu_model() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

constexpr bool kSanitized =
#if defined(RB_SANITIZED) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
    true;
#else
    false;
#endif

}  // namespace

void add_provenance(Report& report, const RunConfig& cfg) {
  report.config("workload", cfg.workload);
  report.config("seed", static_cast<double>(cfg.seed));
  report.config("seconds", cfg.seconds);
  report.config("trace", cfg.trace ? "on" : "off");
  report.config("simd_isa",
                rb::accel::simd::to_string(rb::accel::simd::active_isa()));
  report.config("cpu_model", cpu_model());
  report.config("nproc",
                static_cast<double>(std::thread::hardware_concurrency()));
  report.config("build_type", PERFBENCH_BUILD_TYPE);
  report.config("compiler", __VERSION__);
  report.config("sanitized", kSanitized ? "yes" : "no");
  const bool release = std::string{PERFBENCH_BUILD_TYPE} == "Release";
  if (kSanitized || !release) {
    report.config("warning",
                  "numbers come from a sanitized or non-Release build");
  }
}

std::string filesystem_of(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x794c7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x6969UL: return "nfs";
    case 0x65735546UL: return "fuse";
    default: break;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%lx",
                static_cast<unsigned long>(fs.f_type));
  return buf;
}

}  // namespace perfbench
