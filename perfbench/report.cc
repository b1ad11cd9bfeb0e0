#include "report.h"

#include <time.h>

#include <algorithm>
#include <cmath>

#include "core/json.h"

namespace perfbench {

Summary Summarize(std::vector<double> values) {
  Summary out;
  out.n = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  out.median = n % 2 == 1 ? values[n / 2]
                          : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  if (n == 1) {
    out.q1 = out.q3 = values[0];
    return out;
  }
  // statistics.quantiles(method="exclusive"): m = n + 1, j = i*m // 4
  // clamped to [1, n-1], interpolated with exact integer weights.
  const auto quartile = [&](size_t i) {
    const size_t m = n + 1;
    size_t j = i * m / 4;
    j = std::clamp<size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  out.q1 = quartile(1);
  out.q3 = quartile(3);
  return out;
}

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

bool PercentileSupported(size_t samples, double p) {
  return static_cast<double>(samples) * (1.0 - p) >= 10.0 - 1e-9;
}

void Report::AddSamples(const std::string& name, const std::string& unit,
                        const std::vector<double>& samples) {
  if (metrics_.find(name) == metrics_.end()) metric_order_.push_back(name);
  metrics_[name] = Metric{unit, Summarize(samples)};
}

void Report::AddValue(const std::string& name, const std::string& unit,
                      double value, size_t samples) {
  Summary summary;
  summary.q1 = summary.median = summary.q3 = value;
  summary.n = samples;
  if (metrics_.find(name) == metrics_.end()) metric_order_.push_back(name);
  metrics_[name] = Metric{unit, summary};
}

void Report::Check(bool ok, const std::string& what) {
  checks_.emplace_back(what, ok);
  if (!ok) failures_.push_back(what);
}

void Report::Count(const std::string& operation, size_t attempted,
                   size_t failed) {
  Operation& op = operations_[operation];
  op.attempted += attempted;
  op.failed += failed;
}

void Report::Note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

size_t Report::attempted() const {
  size_t total = 0;
  for (const auto& [name, op] : operations_) total += op.attempted;
  return total;
}

size_t Report::failed() const {
  size_t total = 0;
  for (const auto& [name, op] : operations_) total += op.failed;
  return total;
}

std::string Report::ResultLine() const {
  etsc::json::Writer w;
  w.BeginObject();
  w.Field("correct", correct());
  w.Field("attempted", static_cast<uint64_t>(std::max<size_t>(1, attempted())));
  w.Field("failed", static_cast<uint64_t>(failed()));
  w.Key("metrics").BeginObject();
  for (const std::string& name : metric_order_) {
    const Metric& metric = metrics_.at(name);
    w.Key(name).BeginObject();
    w.Field("value", metric.summary.median);
    w.Field("unit", metric.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.str();
}

std::string Report::Record() const {
  etsc::json::Writer w;
  w.BeginObject();
  for (const auto& [key, value] : notes_) w.Field(key, value);
  w.Field("correct", correct());
  w.Field("attempted", static_cast<uint64_t>(attempted()));
  w.Field("failed", static_cast<uint64_t>(failed()));
  w.Key("metrics").BeginObject();
  for (const std::string& name : metric_order_) {
    const Metric& metric = metrics_.at(name);
    w.Key(name).BeginObject();
    w.Field("value", metric.summary.median);
    w.Field("unit", metric.unit);
    w.Field("q1", metric.summary.q1);
    w.Field("q3", metric.summary.q3);
    w.Field("n", static_cast<uint64_t>(metric.summary.n));
    w.EndObject();
  }
  w.EndObject();
  w.Key("operations").BeginObject();
  for (const auto& [name, op] : operations_) {
    w.Key(name).BeginObject();
    w.Field("attempted", static_cast<uint64_t>(op.attempted));
    w.Field("failed", static_cast<uint64_t>(op.failed));
    w.EndObject();
  }
  w.EndObject();
  w.Key("checks").BeginArray();
  for (const auto& [what, ok] : checks_) {
    w.BeginObject();
    w.Field("check", what);
    w.Field("ok", ok);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace perfbench
