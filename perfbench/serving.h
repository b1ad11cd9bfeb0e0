// The serving stages of a run: the traffic, the open and closed loops over a
// ServingEngine, the WAL crash drill, and the walk probe of the traced run.
#ifndef PERFBENCH_SERVING_H_
#define PERFBENCH_SERVING_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/classifier.h"
#include "core/dataset.h"
#include "core/serving.h"
#include "core/status.h"

namespace perfbench {

/// The served models, one per checkpoint-grid type (every point, floor grid,
/// ceil grid), and their metric-name suffixes (names allow no '+').
const std::vector<std::string>& ServedModels();
const std::vector<std::string>& ServedKeys();

/// The served model of session slot `slot`.
size_t ModelOf(size_t slot);

using ModelSet = std::vector<std::shared_ptr<const etsc::EarlyClassifier>>;

/// The serving traffic. Every parameter is the served dataset's published
/// metadata (data/ucr_like.cc, from the paper's Table 3 and the frequency
/// metadata behind Fig. 13):
///
///   - a fleet of `sensors` sensors, the dataset's instance count;
///   - all sampling on one clock at the dataset's observation period, so
///     each tick brings one point from every active sensor;
///   - each sensor streaming `rounds` series back to back from its own
///     start phase within one series length (a running deployment, not one
///     that starts all its sensors at once);
///   - every stream served by every model, one session per (stream, model).
///
/// `rounds` is the fewest series per sensor that put most of a pass's events
/// in the steady state and, over a run's passes, support a decision p99 (at
/// least 1,000 decisions, ten of them beyond it).
struct Traffic {
  size_t sensors = 0;
  size_t rounds = 0;
  size_t sessions = 0;
  size_t length = 0;  // series length (engine buffer hint)
  size_t num_variables = 1;
  double period_s = 0.0;
  std::vector<etsc::IngestEvent> trace;  // tick by tick
  std::vector<size_t> tick_begin;        // first event of each tick; + end
  std::vector<size_t> series_of_stream;  // held-out series each stream plays
  std::vector<std::vector<size_t>> events_of_slot;
  /// Sequential single-StreamingSession replay per model (the serving
  /// contract's reference, computed without the engine).
  std::vector<etsc::ReplayOutcome> reference;
  /// Batch PredictEarly on each slot's full series.
  std::vector<etsc::EarlyPrediction> batch;

  size_t ticks() const { return tick_begin.size() - 1; }
  const etsc::TimeSeries& series(const etsc::Dataset& heldout,
                                 size_t stream) const {
    return heldout.instance(series_of_stream[stream]);
  }
};

/// Builds the traffic over `heldout` (one series per stream, so it needs
/// sensors x rounds series) and its references under `models`: the sensors'
/// start phases and series drawn from `layout_seed`, the order of the events
/// within each tick from `order_seed`.
etsc::Result<Traffic> BuildTraffic(const etsc::Dataset& heldout,
                                   const ModelSet& models, size_t sensors,
                                   size_t rounds, uint64_t layout_seed,
                                   uint64_t order_seed);

/// Operations attempted and failed across serving stages.
struct ServeCounts {
  size_t opens = 0, opens_failed = 0;
  size_t ingests = 0, ingests_failed = 0;
  size_t sessions = 0, sessions_failed = 0, sessions_forced = 0;
};

/// Open-loop timings. Latencies and dispatch times are net of the time the
/// serving thread was descheduled (see OpenLoop); lags are wall clock.
struct OpenLoopResult {
  std::vector<double> obs_ms;         // due time -> end of processing batch
  std::vector<double> decision_ms;    // obs_ms of the events that decided
  std::vector<double> queue_wait_ms;  // due time -> start of processing batch
  std::vector<double> lag_ms;         // due time -> its Ingest call
  std::vector<double> dispatch_ms;    // per batch
  std::vector<double> batch_sessions;
  double off_cpu_ms = 0.0;            // serving thread descheduled, in total
  std::vector<etsc::ReplayOutcome> outcomes;
};

/// Open loop: tick t is due at start + t * period. One serving thread
/// ingests every event that has come due, dispatches them as one batch
/// (pool width 1: the thread does all the work), and polls the clock until
/// the next tick.
etsc::Result<OpenLoopResult> OpenLoop(const ModelSet& models, const Traffic& t,
                                      const std::string& wal_path,
                                      ServeCounts* counts);

struct ClosedLoopResult {
  double seconds = 0.0;    // net of deschedules (ThreadCpuMs)
  double ingest_ns = 0.0;  // mean per Ingest call, wall (timed runs only)
  std::vector<etsc::ReplayOutcome> outcomes;
};

/// Closed loop: the same ticks back to back, no waiting for due times, run
/// at pool width 1 and timed net of deschedules like the open loop.
etsc::Result<ClosedLoopResult> ClosedLoop(const ModelSet& models,
                                          const Traffic& t,
                                          const std::string& wal_path,
                                          bool time_ingest, ServeCounts* counts);

struct DrillResult {
  double recover_s = 0.0;  // net of deschedules
  size_t torn_rows = 0;
  double resume_s = 0.0;  // wall
  size_t wal_rows = 0;
  double wal_bytes = 0.0;
  size_t observations_before_crash = 0;
  std::vector<etsc::ReplayOutcome> outcomes;
};

/// Crash drill over `wal_path`: journal half the ticks, abandon the engine
/// with a torn last row, Recover() a fresh engine from it (timed) and
/// resume.
etsc::Result<DrillResult> Drill(const ModelSet& models, const Traffic& t,
                                const std::string& wal_path,
                                ServeCounts* counts);

/// Removes a WAL file and its .stale rotation.
void RemoveWal(const std::string& path);

struct WalkResult {
  std::vector<double> batch_checkpoints;
  std::vector<double> streamed_checkpoints;
  /// Undecided Push times by the decile of the series length they reach.
  std::vector<std::vector<double>> push_us_by_decile =
      std::vector<std::vector<double>>(10);
};

/// Batch vs streamed walks of decorated models over `heldout`'s first
/// series: checkpoints per decision and Push cost by position.
WalkResult WalkProbe(const ModelSet& decorated, const etsc::Dataset& heldout);

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H_
