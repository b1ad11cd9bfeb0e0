// Timing helpers, sample statistics, correctness checks and the result
// document of one run.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// CPU time the calling thread has run, in milliseconds: its wall time minus
/// the time it was descheduled, by the guest or by the host. For code that
/// runs wholly on the calling thread and never blocks (the serving stages,
/// at pool width 1), differences of it time the work net of deschedules.
double ThreadCpuMs();

/// Median and quartiles of a sample, the quartiles computed like Python's
/// statistics.quantiles(values, n=4) (the "exclusive" method), the median
/// like statistics.median.
struct Summary {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  size_t n = 0;
};
Summary Summarize(std::vector<double> values);

/// Nearest-rank percentile of the raw samples: the smallest sample with at
/// least fraction `p` of all samples at or below it. Always an observed value.
double Percentile(std::vector<double> values, double p);

/// True when at least ten samples lie beyond percentile `p` — the rule for
/// reporting that percentile at all.
bool PercentileSupported(size_t samples, double p);

/// Collects one run's metrics, operation counts and correctness checks.
class Report {
 public:
  /// A metric measured repeatedly in the run: reported value is the median,
  /// the quartiles and sample count go to the run record.
  void AddSamples(const std::string& name, const std::string& unit,
                  const std::vector<double>& samples);
  /// A metric measured once (a count, a ratio of totals, a percentile over
  /// pooled raw samples with `samples` of them).
  void AddValue(const std::string& name, const std::string& unit, double value,
                size_t samples = 1);

  /// Records a correctness check; a failed one fails the run.
  void Check(bool ok, const std::string& what);

  /// Operations attempted and failed (cells, opens, ingests, sessions, ...).
  void Count(const std::string& operation, size_t attempted, size_t failed);

  /// Free-form provenance entry (string value).
  void Note(const std::string& key, const std::string& value);

  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }
  size_t attempted() const;
  size_t failed() const;

  /// The result line a run prints last: {"correct","attempted","failed",
  /// "metrics"} with each metric's median and unit.
  std::string ResultLine() const;
  /// Everything: provenance notes, per-metric median/quartiles/n, operation
  /// counts, checks.
  std::string Record() const;

 private:
  struct Metric {
    std::string unit;
    Summary summary;
  };
  struct Operation {
    size_t attempted = 0;
    size_t failed = 0;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> metric_order_;
  std::map<std::string, Operation> operations_;
  std::vector<std::pair<std::string, bool>> checks_;
  std::vector<std::string> failures_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
