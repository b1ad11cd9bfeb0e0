// Benchmark-side instrumentation: decorators that forward every call of a
// base classifier or trigger while timing it, layer counters, and the span
// analysis that turns the Chrome trace into per-layer self times.
//
// Nothing here changes what the wrapped objects compute: every call is
// forwarded unchanged, names and configuration fingerprints are the inner
// object's, so a decorated model saves the same bytes as an undecorated one.
// The traced run checks exactly that.
#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/classifier.h"
#include "core/status.h"

namespace perfbench {

/// Accumulated wall time and call count of one instrumented call site.
struct CallTimer {
  std::atomic<uint64_t> ns{0};
  std::atomic<uint64_t> calls{0};

  void Add(uint64_t elapsed_ns) {
    ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
    calls.fetch_add(1, std::memory_order_relaxed);
  }
};

/// Totals of one CallTimer at a point in time.
struct CallTotals {
  uint64_t ns = 0;
  uint64_t calls = 0;

  CallTotals operator-(const CallTotals& earlier) const {
    return {ns - earlier.ns, calls - earlier.calls};
  }
};

/// Process-wide counters fed by the decorators.
struct LayerCounters {
  CallTimer bank_fit;        // base fits made for the per-checkpoint bank
  CallTimer calib_fit;       // base fits made by the trigger's calibration
  CallTimer bank_predict;    // Predict / PredictProba on bank models
  CallTimer trigger_fit;     // Trigger::Fit, calibration fits included
  CallTimer trigger_decide;  // Trigger::Decide
};

LayerCounters& Counters();

/// Snapshot of every LayerCounters timer; differences isolate one stage.
struct LayerTotals {
  CallTotals bank_fit, calib_fit, bank_predict, trigger_fit, trigger_decide;

  static LayerTotals Now();
  LayerTotals operator-(const LayerTotals& earlier) const;
};

/// Trigger::Decide calls made on the calling thread so far (the walk probe
/// differences it around one PredictEarly or Push).
uint64_t ThreadDecideCalls();

/// Which fits a decorated base reports: bank members or calibration clones.
enum class BaseRole { kBank, kCalibration };

/// Builds the decorated twin of a composed classifier: a
/// ComposedEarlyClassifier with the same name, options and (cloned, unfitted)
/// base and trigger, each wrapped in a forwarding decorator. `id` tags the
/// spans the decorators record (one campaign cell or one served model).
/// With `decorate` false the twin is built from the same parts undecorated —
/// the reference the decoration check compares against.
etsc::Result<std::unique_ptr<etsc::EarlyClassifier>> ComposedTwin(
    const etsc::EarlyClassifier& model, const std::string& id, bool decorate);

/// One completed span read back from the Chrome trace.
struct SpanRecord {
  std::string name;
  std::string category;
  uint64_t tid = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
  double self_us = 0.0;  // dur minus the time its child spans cover
};

/// Parses trace::ToChromeJson() output and computes every span's self time:
/// on each thread, spans nest by containment, and a span's self time is its
/// duration minus the durations of its direct children.
etsc::Result<std::vector<SpanRecord>> ParseSpans(const std::string& chrome_json);

/// Name without the "#<id>" suffix the benchmark's spans carry.
std::string SpanBase(const std::string& name);

/// The spans lying inside the (last) span named `stage`.
std::vector<const SpanRecord*> SpansWithin(const std::vector<SpanRecord>& spans,
                                           const std::string& stage);

/// Sum of `base`-named spans' self times.
double SelfMicros(const std::vector<const SpanRecord*>& spans,
                  const std::string& base);

/// Busy time of a traced grid: per thread, the union of the spans that do
/// CV work (folds, journal appends) and of pool tasks that contain no fold
/// (helpers of parallel loops inside a fold), summed over threads.
double GridBusyMicros(const std::vector<const SpanRecord*>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
