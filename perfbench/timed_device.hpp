#pragma once
// A timing and counting storage::Device decorator. It forwards every call
// to the wrapped device and, while timing is on, adds the call's wall time,
// count and bytes to per-operation totals. The caller reads the totals
// before and after an LsmStore call to split that call into device time and
// the store's own time.

#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "storage/device.hpp"

namespace perfbench {

class TimedDevice final : public rb::storage::Device {
 public:
  struct Totals {
    std::uint64_t calls = 0;
    std::uint64_t bytes = 0;
    double ns = 0.0;
  };

  explicit TimedDevice(rb::storage::Device& inner) : inner_{inner} {}

  void set_timing(bool on) noexcept { timing_ = on; }
  /// Durations of individual sync calls (timed calls only).
  const std::vector<double>& sync_ns() const noexcept { return sync_ns_; }

  mutable Totals append_totals, sync_totals, read_totals, meta_totals;

  /// Device time of every kind so far.
  double total_ns() const noexcept {
    return append_totals.ns + sync_totals.ns + read_totals.ns +
           meta_totals.ns;
  }

  void append(const std::string& file, std::string_view data) override {
    timed(append_totals, data.size(), [&] { inner_.append(file, data); });
  }
  void sync(const std::string& file) override {
    const double before = sync_totals.ns;
    timed(sync_totals, 0, [&] { inner_.sync(file); });
    if (timing_) sync_ns_.push_back(sync_totals.ns - before);
  }
  void truncate(const std::string& file, std::uint64_t size) override {
    timed(meta_totals, 0, [&] { inner_.truncate(file, size); });
  }
  void rename(const std::string& from, const std::string& to) override {
    timed(meta_totals, 0, [&] { inner_.rename(from, to); });
  }
  void remove(const std::string& file) override {
    timed(meta_totals, 0, [&] { inner_.remove(file); });
  }
  bool exists(const std::string& file) const override {
    bool out = false;
    timed(meta_totals, 0, [&] { out = inner_.exists(file); });
    return out;
  }
  std::uint64_t size(const std::string& file) const override {
    std::uint64_t out = 0;
    timed(meta_totals, 0, [&] { out = inner_.size(file); });
    return out;
  }
  std::string read(const std::string& file) const override {
    std::string out;
    timed(read_totals, 0, [&] { out = inner_.read(file); });
    if (timing_) read_totals.bytes += out.size();
    return out;
  }
  std::vector<std::string> list() const override {
    std::vector<std::string> out;
    timed(meta_totals, 0, [&] { out = inner_.list(); });
    return out;
  }

 private:
  template <typename Fn>
  void timed(Totals& totals, std::size_t bytes, Fn&& fn) const {
    if (!timing_) {
      fn();
      return;
    }
    const auto t0 = Clock::now();
    fn();
    totals.ns += ns_between(t0, Clock::now());
    ++totals.calls;
    totals.bytes += bytes;
  }

  rb::storage::Device& inner_;
  bool timing_ = false;
  std::vector<double> sync_ns_;
};

}  // namespace perfbench
