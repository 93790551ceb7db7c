#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "obs/json.hpp"
#include "obs/quantile.hpp"

namespace rb::obs {

LatencyHistogram::LatencyHistogram(std::vector<double> upper_bounds)
    : bounds_{std::move(upper_bounds)} {
  if (bounds_.empty())
    throw std::invalid_argument{"LatencyHistogram: need >= 1 bound"};
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (!(bounds_[i - 1] < bounds_[i]))
      throw std::invalid_argument{
          "LatencyHistogram: bounds must be strictly increasing"};
  }
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  exemplars_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0);
    exemplars_[i].store(0);
  }
}

std::size_t LatencyHistogram::bucket_index(double v) const noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  return static_cast<std::size_t>(it - bounds_.begin());
}

void LatencyHistogram::observe(double v) noexcept {
  counts_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

void LatencyHistogram::observe_exemplar(double v,
                                        std::uint64_t exemplar_id) noexcept {
  const std::size_t idx = bucket_index(v);
  observe(v);
  if (exemplar_id != 0)
    exemplars_[idx].store(exemplar_id, std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::exemplar(std::size_t i) const {
  if (i >= bucket_count())
    throw std::out_of_range{"LatencyHistogram::exemplar"};
  return exemplars_[i].load(std::memory_order_relaxed);
}

void LatencyHistogram::reset() noexcept {
  for (std::size_t i = 0; i < bucket_count(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
    exemplars_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

double LatencyHistogram::bucket_bound(std::size_t i) const {
  if (i >= bucket_count())
    throw std::out_of_range{"LatencyHistogram::bucket_bound"};
  return i < bounds_.size() ? bounds_[i]
                            : std::numeric_limits<double>::infinity();
}

std::uint64_t LatencyHistogram::bucket(std::size_t i) const {
  if (i >= bucket_count()) throw std::out_of_range{"LatencyHistogram::bucket"};
  return counts_[i].load(std::memory_order_relaxed);
}

double LatencyHistogram::percentile(double p) const {
  std::vector<std::uint64_t> counts(bucket_count());
  for (std::size_t i = 0; i < counts.size(); ++i)
    counts[i] = counts_[i].load(std::memory_order_relaxed);
  return quantile_bucketed(counts, bounds_, p);
}

void LatencyHistogram::merge_from(const LatencyHistogram& other) {
  if (other.bounds_ != bounds_)
    throw std::invalid_argument{
        "LatencyHistogram::merge_from: bucket bounds differ"};
  for (std::size_t i = 0; i < bucket_count(); ++i) {
    counts_[i].fetch_add(other.counts_[i].load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  }
  count_.fetch_add(other.count(), std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  const double add = other.sum();
  while (!sum_.compare_exchange_weak(cur, cur + add,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<double> exponential_bounds(double start, double factor,
                                       std::size_t n) {
  if (!(start > 0.0) || !(factor > 1.0) || n == 0)
    throw std::invalid_argument{"exponential_bounds: need start>0, factor>1, n>=1"};
  std::vector<double> out;
  out.reserve(n);
  double b = start;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(b);
    b *= factor;
  }
  return out;
}

std::string Registry::make_key(std::string_view name, const Labels& labels) {
  std::string key{name};
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

Registry::Entry& Registry::find_or_create(std::string_view name, Labels labels,
                                          MetricSample::Kind kind,
                                          std::vector<double> bounds) {
  std::sort(labels.begin(), labels.end());
  const std::string key = make_key(name, labels);
  const std::scoped_lock lock{mutex_};
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    Entry e;
    e.kind = kind;
    e.name = std::string{name};
    e.labels = std::move(labels);
    switch (kind) {
      case MetricSample::Kind::kCounter:
        e.counter = std::make_unique<Counter>();
        break;
      case MetricSample::Kind::kGauge:
        e.gauge = std::make_unique<Gauge>();
        break;
      case MetricSample::Kind::kHistogram:
        e.hist = std::make_unique<LatencyHistogram>(std::move(bounds));
        break;
    }
    it = entries_.emplace(key, std::move(e)).first;
  } else if (it->second.kind != kind) {
    throw std::invalid_argument{"Registry: metric '" + std::string{name} +
                                "' already registered with another kind"};
  }
  return it->second;
}

Counter& Registry::counter(std::string_view name, Labels labels) {
  return *find_or_create(name, std::move(labels), MetricSample::Kind::kCounter)
              .counter;
}

Gauge& Registry::gauge(std::string_view name, Labels labels) {
  return *find_or_create(name, std::move(labels), MetricSample::Kind::kGauge)
              .gauge;
}

LatencyHistogram& Registry::histogram(std::string_view name,
                                      std::vector<double> upper_bounds,
                                      Labels labels) {
  return *find_or_create(name, std::move(labels),
                         MetricSample::Kind::kHistogram,
                         std::move(upper_bounds))
              .hist;
}

void Registry::merge_from(const Registry& other) {
  // Snapshot the other registry's entries (shallow: keys + pointers are
  // stable) under its lock, then fold into ours.
  std::vector<const Entry*> theirs;
  {
    const std::scoped_lock lock{other.mutex_};
    theirs.reserve(other.entries_.size());
    for (const auto& [key, e] : other.entries_) theirs.push_back(&e);
  }
  for (const Entry* e : theirs) {
    switch (e->kind) {
      case MetricSample::Kind::kCounter:
        counter(e->name, e->labels).merge_from(*e->counter);
        break;
      case MetricSample::Kind::kGauge:
        gauge(e->name, e->labels).merge_from(*e->gauge);
        break;
      case MetricSample::Kind::kHistogram:
        histogram(e->name, e->hist->bounds(), e->labels)
            .merge_from(*e->hist);
        break;
    }
  }
}

std::vector<MetricSample> Registry::snapshot() const {
  std::vector<MetricSample> out;
  const std::scoped_lock lock{mutex_};
  out.reserve(entries_.size());
  for (const auto& [key, e] : entries_) {
    MetricSample s;
    s.name = e.name;
    s.labels = e.labels;
    s.kind = e.kind;
    switch (e.kind) {
      case MetricSample::Kind::kCounter:
        s.value = static_cast<double>(e.counter->value());
        break;
      case MetricSample::Kind::kGauge:
        s.value = e.gauge->value();
        break;
      case MetricSample::Kind::kHistogram:
        s.count = e.hist->count();
        s.sum = e.hist->sum();
        s.value = e.hist->mean();
        s.p50 = e.hist->percentile(50.0);
        s.p90 = e.hist->percentile(90.0);
        s.p99 = e.hist->percentile(99.0);
        break;
    }
    out.push_back(std::move(s));
  }
  // std::map iteration is already name-ordered (labels folded into the key).
  return out;
}

namespace {
const char* kind_name(MetricSample::Kind k) {
  switch (k) {
    case MetricSample::Kind::kCounter: return "counter";
    case MetricSample::Kind::kGauge: return "gauge";
    case MetricSample::Kind::kHistogram: return "histogram";
  }
  return "?";
}
}  // namespace

std::string Registry::to_json() const {
  JsonWriter w;
  w.begin_object().key("metrics").begin_array();
  for (const auto& s : snapshot()) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("kind").value(kind_name(s.kind));
    if (!s.labels.empty()) {
      w.key("labels").begin_object();
      for (const auto& [k, v] : s.labels) w.key(k).value(v);
      w.end_object();
    }
    if (s.kind == MetricSample::Kind::kHistogram) {
      w.key("count").value(static_cast<std::uint64_t>(s.count));
      w.key("sum").value(s.sum);
      w.key("mean").value(s.value);
      w.key("p50").value(s.p50);
      w.key("p90").value(s.p90);
      w.key("p99").value(s.p99);
    } else {
      w.key("value").value(s.value);
    }
    w.end_object();
  }
  w.end_array().end_object();
  return w.take();
}

std::string Registry::to_csv() const {
  std::string out = "name,labels,kind,value,count,sum,p50,p90,p99\n";
  char buf[192];
  for (const auto& s : snapshot()) {
    std::string labels;
    for (const auto& [k, v] : s.labels) {
      if (!labels.empty()) labels += ';';
      labels += k;
      labels += '=';
      labels += v;
    }
    std::snprintf(buf, sizeof buf, ",%s,%.17g,%llu,%.17g,%.17g,%.17g,%.17g\n",
                  kind_name(s.kind), s.value,
                  static_cast<unsigned long long>(s.count), s.sum, s.p50,
                  s.p90, s.p99);
    out += s.name;
    out += ',';
    out += labels;
    out += buf;
  }
  return out;
}

void Registry::clear() {
  const std::scoped_lock lock{mutex_};
  entries_.clear();
}

void Registry::reset_for_test() {
  const std::scoped_lock lock{mutex_};
  for (auto& [key, e] : entries_) {
    switch (e.kind) {
      case MetricSample::Kind::kCounter: e.counter->reset(); break;
      case MetricSample::Kind::kGauge: e.gauge->reset(); break;
      case MetricSample::Kind::kHistogram: e.hist->reset(); break;
    }
  }
}

Registry& Registry::global() {
  static Registry r;
  return r;
}

}  // namespace rb::obs
