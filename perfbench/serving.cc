#include "serving.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>
#include <utility>

#include "core/fault.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/streaming.h"
#include "report.h"
#include "tracing.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

constexpr size_t kWalkSeriesPerModel = 30;
constexpr size_t kTornBytes = 7;  // a row cut mid-write by the crash

struct Engine {
  std::unique_ptr<etsc::ServingEngine> engine;
  std::vector<etsc::SessionId> ids;
  size_t opens_failed = 0;
};

/// A fresh engine with the mix registered (journaling to `wal_path` when
/// non-empty) and, when `open` is set, one session per slot.
etsc::Result<Engine> MakeEngine(const ModelSet& models, const Traffic& t,
                                const std::string& wal_path, bool open) {
  etsc::ServingOptions options;
  options.expected_length = t.length;
  options.wal_path = wal_path;
  Engine e;
  e.engine = std::make_unique<etsc::ServingEngine>(options);
  for (size_t m = 0; m < models.size(); ++m) {
    ETSC_RETURN_NOT_OK(
        e.engine->RegisterModel(ServedModels()[m], models[m], t.num_variables));
  }
  if (!open) return e;
  e.ids.resize(t.sessions);
  for (size_t s = 0; s < t.sessions; ++s) {
    auto id = e.engine->Open(ServedModels()[ModelOf(s)]);
    if (!id.ok()) {
      ++e.opens_failed;
      continue;
    }
    e.ids[s] = *id;
  }
  return e;
}

/// Each slot's outcome, Finish()ing undecided sessions (the end of stream).
std::vector<etsc::ReplayOutcome> Collect(etsc::ServingEngine& engine,
                                         const std::vector<etsc::SessionId>& ids) {
  std::vector<etsc::ReplayOutcome> outcomes(ids.size());
  for (size_t s = 0; s < ids.size(); ++s) {
    auto info = engine.Info(ids[s]);
    if (info.ok() && info->decision.has_value()) {
      const etsc::DecisionMeta& meta = *info->meta;
      outcomes[s] = {info->decision->label, info->decision->prefix_length,
                     info->deadline_forced, false, meta.halt_step,
                     meta.earliness, meta.confidence};
      continue;
    }
    auto finished = engine.Finish(ids[s]);
    auto after = engine.Info(ids[s]);
    if (!finished.ok() || !after.ok() || !after->meta.has_value()) {
      outcomes[s].failed = true;
      continue;
    }
    const etsc::DecisionMeta& meta = *after->meta;
    outcomes[s] = {finished->label, finished->prefix_length, true, false,
                   meta.halt_step,  meta.earliness,          meta.confidence};
  }
  return outcomes;
}

void AddCounts(ServeCounts* counts, const Engine& e, size_t ingests,
               size_t ingest_failures,
               const std::vector<etsc::ReplayOutcome>& outcomes) {
  counts->opens += e.ids.size();
  counts->opens_failed += e.opens_failed;
  counts->ingests += ingests;
  counts->ingests_failed += ingest_failures;
  counts->sessions += outcomes.size();
  for (const auto& o : outcomes) counts->sessions_failed += o.failed ? 1 : 0;
  counts->sessions_forced += e.engine->stats().deadline_forced;
}

}  // namespace

const std::vector<std::string>& ServedModels() {
  static const auto* names = new std::vector<std::string>{
      "ects", "minirocket-logistic+prob", "1nn+ecec-ratio"};
  return *names;
}

const std::vector<std::string>& ServedKeys() {
  static const auto* keys =
      new std::vector<std::string>{"ects", "prob", "ecec"};
  return *keys;
}

size_t ModelOf(size_t slot) { return slot % ServedModels().size(); }

etsc::Result<Traffic> BuildTraffic(const etsc::Dataset& heldout,
                                   const ModelSet& models, size_t sensors,
                                   size_t rounds, uint64_t layout_seed,
                                   uint64_t order_seed) {
  const size_t num_models = ServedModels().size();
  Traffic t;
  t.sensors = sensors;
  t.rounds = rounds;
  t.sessions = sensors * rounds * num_models;
  t.length = heldout.MaxLength();
  t.num_variables = heldout.NumVariables();
  t.period_s = heldout.observation_period_seconds();
  if (heldout.size() < sensors * rounds) {
    return etsc::Status::InvalidArgument("fewer held-out series than streams");
  }
  if (!(t.period_s > 0.0)) {
    return etsc::Status::InvalidArgument("served dataset has no observation period");
  }
  // The deployment is drawn once from `layout_seed`, the same on every run:
  // each sensor's start phase and the held-out series it streams in each
  // round (sensor i streams stream i * rounds + r in round r, back to back,
  // from its start tick on). Which sessions are at a checkpoint, or still
  // undecided, on a tick follows from it and sets that tick's work.
  const size_t streams = sensors * rounds;
  etsc::Rng layout(layout_seed);
  t.series_of_stream.resize(streams);
  for (size_t k = 0; k < streams; ++k) t.series_of_stream[k] = k;
  layout.Shuffle(&t.series_of_stream);
  std::vector<std::vector<size_t>> round_start(sensors);
  size_t ticks = 0;
  for (size_t i = 0; i < sensors; ++i) {
    size_t at = layout.Index(t.length);
    for (size_t r = 0; r < rounds; ++r) {
      round_start[i].push_back(at);
      at += t.series(heldout, i * rounds + r).length();
    }
    ticks = std::max(ticks, at);
  }
  // `order_seed` draws the order in which each tick's events arrive.
  etsc::Rng order(order_seed);
  t.events_of_slot.resize(t.sessions);
  std::vector<size_t> round(sensors, 0);
  std::vector<etsc::IngestEvent> arriving;
  for (size_t tick = 0; tick < ticks; ++tick) {
    arriving.clear();
    for (size_t i = 0; i < sensors; ++i) {
      size_t& r = round[i];
      if (r == rounds || tick < round_start[i][r]) continue;
      const size_t stream = i * rounds + r;
      const etsc::TimeSeries& series = t.series(heldout, stream);
      const size_t step = tick - round_start[i][r];
      std::vector<double> values(t.num_variables);
      for (size_t v = 0; v < t.num_variables; ++v) values[v] = series.at(v, step);
      for (size_t m = 0; m < num_models; ++m) {
        arriving.push_back({stream * num_models + m, values});
      }
      if (step + 1 == series.length()) ++r;
    }
    order.Shuffle(&arriving);
    t.tick_begin.push_back(t.trace.size());
    for (etsc::IngestEvent& event : arriving) {
      t.events_of_slot[event.session].push_back(t.trace.size());
      t.trace.push_back(std::move(event));
    }
  }
  t.tick_begin.push_back(t.trace.size());

  // The references, one thread per model (each computes on its own).
  t.reference.resize(t.sessions);
  t.batch.resize(t.sessions);
  std::vector<etsc::Status> statuses(num_models);
  {
    std::vector<std::jthread> threads;
    for (size_t m = 0; m < num_models; ++m) {
      threads.emplace_back([&, m] {
        std::vector<etsc::IngestEvent> sub;
        for (const etsc::IngestEvent& event : t.trace) {
          if (ModelOf(event.session) != m) continue;
          sub.push_back({event.session / num_models, event.values});
        }
        const auto outcomes =
            etsc::ReplaySequential(*models[m], t.num_variables, streams, sub);
        for (size_t stream = 0; stream < streams; ++stream) {
          const size_t slot = stream * num_models + m;
          t.reference[slot] = outcomes[stream];
          auto batch = models[m]->PredictEarly(t.series(heldout, stream));
          if (!batch.ok()) {
            statuses[m] = batch.status();
            return;
          }
          t.batch[slot] = *batch;
        }
      });
    }
  }
  for (const etsc::Status& status : statuses) ETSC_RETURN_NOT_OK(status);
  return t;
}

/// Open loop: tick k is due at start + k * period. One serving thread runs
/// the loop at pool width 1, so every ingest and dispatch runs on it: it
/// ingests every event that has come due (one tick's, or several when it
/// fell behind), dispatches them as one batch, and polls the clock until the
/// next tick. An event's latency runs from its due time to the end of the
/// batch that processed it, so time spent waiting while the loop was busy
/// with an earlier batch counts.
///
/// The thread never sleeps, so its wall time minus its CPU time is exactly
/// the time it was descheduled; that time is subtracted from every latency.
/// On a shared host the guest loses its vCPUs in slices of several
/// milliseconds during contention episodes that last seconds, and those
/// slices, not the program, would otherwise set every p99. The poll is a
/// plain clock read with no PAUSE hint: under KVM a run of PAUSEs triggers
/// pause-loop exiting, which hands the vCPU to other guests between ticks,
/// and each tick would then start on caches they had evicted.
etsc::Result<OpenLoopResult> OpenLoop(const ModelSet& models, const Traffic& t,
                                      const std::string& wal_path,
                                      ServeCounts* counts) {
  ETSC_ASSIGN_OR_RETURN(Engine e, MakeEngine(models, t, wal_path, true));
  const size_t ticks = t.ticks();
  const size_t total = t.trace.size();
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  const auto due = [&](size_t tick) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(tick) * t.period_s));
  };

  // Off-CPU milliseconds accumulated since `origin`, sampled at marks (the
  // first poll past a due time, each batch's start and end); each tick's
  // value at its due time is interpolated between the marks around it. The
  // thread CPU clock is a system call, so the poll itself reads only the
  // wall clock.
  struct Mark {
    Clock::time_point at;
    double off_ms;
  };
  const Clock::time_point origin = Clock::now();
  const double origin_cpu = ThreadCpuMs();
  const auto mark = [&] {
    const Clock::time_point now = Clock::now();
    return Mark{now, Ms(now - origin) - (ThreadCpuMs() - origin_cpu)};
  };
  std::vector<double> due_off(ticks, 0.0);
  size_t crossed = 0;
  Mark last_mark = mark();
  const auto advance = [&](const Mark& m) {
    for (; crossed < ticks && due(crossed) <= m.at; ++crossed) {
      const double span = Ms(m.at - last_mark.at);
      const double part =
          span > 0.0 ? std::clamp(Ms(due(crossed) - last_mark.at) / span, 0.0, 1.0)
                     : 1.0;
      due_off[crossed] = last_mark.off_ms + part * (m.off_ms - last_mark.off_ms);
    }
    last_mark = m;
  };

  OpenLoopResult out;
  out.obs_ms.resize(total);
  out.queue_wait_ms.resize(total);
  out.lag_ms.resize(total);
  std::vector<char> seen(t.sessions, 0);
  size_t ingest_failures = 0;
  size_t tick = 0;
  while (tick < ticks) {
    if (Clock::now() < due(tick)) continue;  // poll, do not sleep
    advance(mark());
    size_t last = tick;
    size_t distinct = 0;
    while (last < ticks && due(last) <= Clock::now()) {
      const auto tick_due = due(last);
      for (size_t i = t.tick_begin[last]; i < t.tick_begin[last + 1]; ++i) {
        const etsc::IngestEvent& event = t.trace[i];
        out.lag_ms[i] = Ms(Clock::now() - tick_due);
        ingest_failures +=
            e.engine->Ingest(e.ids[event.session], event.values).ok() ? 0 : 1;
        char& flag = seen[event.session];
        distinct += flag ? 0 : 1;
        flag = 1;
      }
      ++last;
    }
    const Mark batch_start = mark();
    advance(batch_start);
    auto dispatched = e.engine->DispatchBatch();
    const Mark batch_end = mark();
    advance(batch_end);
    if (!dispatched.ok()) return dispatched.status();
    for (size_t k = tick; k < last; ++k) {
      const auto tick_due = due(k);
      const double obs = Ms(batch_end.at - tick_due) - (batch_end.off_ms - due_off[k]);
      const double wait =
          Ms(batch_start.at - tick_due) - (batch_start.off_ms - due_off[k]);
      for (size_t i = t.tick_begin[k]; i < t.tick_begin[k + 1]; ++i) {
        out.obs_ms[i] = obs;
        out.queue_wait_ms[i] = wait;
        seen[t.trace[i].session] = 0;
      }
    }
    out.dispatch_ms.push_back(Ms(batch_end.at - batch_start.at) -
                              (batch_end.off_ms - batch_start.off_ms));
    out.batch_sessions.push_back(static_cast<double>(distinct));
    tick = last;
  }
  out.off_cpu_ms = last_mark.off_ms;
  out.outcomes = Collect(*e.engine, e.ids);
  for (size_t s = 0; s < t.sessions; ++s) {
    const etsc::ReplayOutcome& o = out.outcomes[s];
    if (o.failed || o.via_finish || o.halt_step == 0 ||
        o.halt_step > t.events_of_slot[s].size()) {
      continue;
    }
    out.decision_ms.push_back(out.obs_ms[t.events_of_slot[s][o.halt_step - 1]]);
  }
  AddCounts(counts, e, total, ingest_failures, out.outcomes);
  return out;
}

/// Closed loop: one client ingests the ticks back to back, dispatching after
/// each, then finishes undecided sessions.
etsc::Result<ClosedLoopResult> ClosedLoop(const ModelSet& models,
                                          const Traffic& t,
                                          const std::string& wal_path,
                                          bool time_ingest,
                                          ServeCounts* counts) {
  ETSC_ASSIGN_OR_RETURN(Engine e, MakeEngine(models, t, wal_path, true));
  ClosedLoopResult out;
  size_t failures = 0;
  uint64_t ingest_ns = 0;
  const double start = ThreadCpuMs();
  for (size_t tick = 0; tick < t.ticks(); ++tick) {
    for (size_t i = t.tick_begin[tick]; i < t.tick_begin[tick + 1]; ++i) {
      const etsc::IngestEvent& event = t.trace[i];
      if (time_ingest) {
        const auto before = Clock::now();
        failures +=
            e.engine->Ingest(e.ids[event.session], event.values).ok() ? 0 : 1;
        ingest_ns += static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                 before)
                .count());
      } else {
        failures +=
            e.engine->Ingest(e.ids[event.session], event.values).ok() ? 0 : 1;
      }
    }
    ETSC_RETURN_NOT_OK(e.engine->DispatchBatch().status());
  }
  out.outcomes = Collect(*e.engine, e.ids);
  out.seconds = (ThreadCpuMs() - start) / 1e3;
  out.ingest_ns = static_cast<double>(ingest_ns) /
                  static_cast<double>(std::max<size_t>(1, t.trace.size()));
  AddCounts(counts, e, t.trace.size(), failures, out.outcomes);
  return out;
}

void RemoveWal(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
  fs::remove(path + ".stale", ec);
}

/// Crash drill: journal the first half of the ticks (closed loop), abandon
/// the engine and cut its last row short — what a SIGKILL mid-append
/// leaves — then Recover() a fresh engine and resume every slot from the
/// offset the WAL carried it to.
etsc::Result<DrillResult> Drill(const ModelSet& models, const Traffic& t,
                                const std::string& wal_path,
                                ServeCounts* counts) {
  RemoveWal(wal_path);
  DrillResult out;
  const size_t half = t.tick_begin[t.ticks() / 2];
  size_t failures = 0;
  {
    ETSC_ASSIGN_OR_RETURN(Engine crashed, MakeEngine(models, t, wal_path, true));
    for (size_t tick = 0; tick < t.ticks() / 2; ++tick) {
      for (size_t i = t.tick_begin[tick]; i < t.tick_begin[tick + 1]; ++i) {
        const etsc::IngestEvent& event = t.trace[i];
        failures += crashed.engine->Ingest(crashed.ids[event.session],
                                           event.values)
                            .ok()
                        ? 0
                        : 1;
      }
      ETSC_RETURN_NOT_OK(crashed.engine->DispatchBatch().status());
    }
    out.wal_rows = crashed.engine->stats().wal_appends;
    counts->opens += crashed.ids.size();
    counts->opens_failed += crashed.opens_failed;
  }  // abandoned: no Finish, no Close
  out.observations_before_crash = half;
  std::error_code size_error;
  out.wal_bytes = static_cast<double>(fs::file_size(wal_path, size_error));
  if (size_error) return etsc::Status::IOError("drill: cannot size " + wal_path);
  ETSC_RETURN_NOT_OK(etsc::TruncateTail(wal_path, kTornBytes));

  // Recover() runs at pool width 1 and is timed net of deschedules; the
  // untimed crash and resume phases run at the caller's width. Recover()
  // arms the WAL it reads, so the resumed engine journals on after the
  // recovered rows.
  const size_t width = etsc::MaxParallelism();
  etsc::SetMaxParallelism(1);
  ETSC_ASSIGN_OR_RETURN(Engine recovered, MakeEngine(models, t, "", false));
  const double recover_start = ThreadCpuMs();
  ETSC_ASSIGN_OR_RETURN(etsc::WalRecovery recovery,
                        recovered.engine->Recover(wal_path));
  out.recover_s = (ThreadCpuMs() - recover_start) / 1e3;
  out.torn_rows = recovery.torn_rows;
  etsc::SetMaxParallelism(width);

  const auto start = Clock::now();
  std::vector<etsc::SessionId> ids(t.sessions);
  std::vector<size_t> skip(t.sessions, 0);
  for (size_t s = 0; s < t.sessions; ++s) {
    const etsc::SessionId expected = static_cast<etsc::SessionId>(s + 1);
    auto info = recovered.engine->Info(expected);
    if (info.ok()) {
      ids[s] = expected;
      skip[s] = info->ingested;
      continue;
    }
    auto id = recovered.engine->Open(ServedModels()[ModelOf(s)]);
    counts->opens += 1;
    if (!id.ok()) {
      counts->opens_failed += 1;
      continue;
    }
    ids[s] = *id;
  }
  std::vector<size_t> seen(t.sessions, 0);
  size_t ingested = half;
  for (size_t tick = 0; tick < t.ticks(); ++tick) {
    for (size_t i = t.tick_begin[tick]; i < t.tick_begin[tick + 1]; ++i) {
      const etsc::IngestEvent& event = t.trace[i];
      if (seen[event.session]++ < skip[event.session]) continue;
      ++ingested;
      failures +=
          recovered.engine->Ingest(ids[event.session], event.values).ok() ? 0
                                                                          : 1;
    }
    ETSC_RETURN_NOT_OK(recovered.engine->DispatchBatch().status());
  }
  out.outcomes = Collect(*recovered.engine, ids);
  out.resume_s = SecondsSince(start);
  counts->ingests += ingested;
  counts->ingests_failed += failures;
  counts->sessions += out.outcomes.size();
  for (const auto& o : out.outcomes) counts->sessions_failed += o.failed ? 1 : 0;
  counts->sessions_forced += recovered.engine->stats().deadline_forced;
  recovered.engine.reset();
  RemoveWal(wal_path);
  return out;
}

// ---------------------------------------------------------------------------
// Walk probe (traced run): checkpoints the trigger evaluates per decision,
// batch vs streamed, and Push cost by prefix position.
// ---------------------------------------------------------------------------

WalkResult WalkProbe(const ModelSet& decorated, const etsc::Dataset& heldout) {
  WalkResult out;
  const size_t count = std::min(kWalkSeriesPerModel, heldout.size());
  for (const auto& model : decorated) {
    for (size_t i = 0; i < count; ++i) {
      const etsc::TimeSeries& series = heldout.instance(i);
      uint64_t before = ThreadDecideCalls();
      if (!model->PredictEarly(series).ok()) continue;
      out.batch_checkpoints.push_back(
          static_cast<double>(ThreadDecideCalls() - before));

      etsc::StreamingSession session(*model, series.num_variables(),
                                     series.length());
      before = ThreadDecideCalls();
      std::vector<double> point(series.num_variables());
      const size_t length = series.length();
      for (size_t step = 0; step < length; ++step) {
        for (size_t v = 0; v < point.size(); ++v) point[v] = series.at(v, step);
        const auto push_start = Clock::now();
        auto pushed = session.Push(point);
        const double us = Ms(Clock::now() - push_start) * 1e3;
        if (!pushed.ok()) break;
        out.push_us_by_decile[step * 10 / length].push_back(us);
        if (pushed->has_value()) break;
      }
      if (!session.decision().has_value() && !session.Finish().ok()) continue;
      out.streamed_checkpoints.push_back(
          static_cast<double>(ThreadDecideCalls() - before));
    }
  }
  return out;
}

}  // namespace perfbench
