// One run of one workload. Every run measures the same four stages, so every
// run prints every end-to-end metric; the workloads differ in whether the
// serving WAL is armed in the open and closed loops:
//
//   campaign  Campaign::Run, the campaign's public entry point (stratified
//             2-fold CV per cell, a lane per algorithm on the pool at width
//             nproc, the journal, no train or predict budget), over the
//             paper's algorithms x two datasets;
//   open      open-loop passes: one serving thread feeds a sensor fleet's
//             points to a ServingEngine as they come due and dispatches them;
//   closed    closed loops: the same traffic as fast as the engine takes it;
//   drill     the serving WAL: half the traffic journaled, the engine
//             abandoned with a torn last row, a fresh engine Recover()s and
//             resumes.
//
// Every stage's outputs are checked against an independent reference and a
// mismatch fails the run.
#include "workload.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include "algos/registrations.h"
#include "bench/bench_common.h"
#include "core/composed.h"
#include "core/evaluation.h"
#include "core/parallel.h"
#include "core/registry.h"
#include "core/rng.h"
#include "core/simd.h"
#include "core/trace.h"
#include "data/repository.h"
#include "data/ucr_like.h"
#include "probes.h"
#include "report.h"
#include "serving.h"
#include "tracing.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace bench = etsc::bench;

constexpr size_t kSetupRepetitions = 5;
constexpr size_t kCheckSplitPerClass = 12;  // width and decoration checks

/// The campaign grid's datasets: the paper's two corpus members whose size
/// the campaign configuration scales (CampaignConfig::height_scale for the
/// sets above 1,000 instances, maritime_windows), one univariate and one
/// multivariate (voting wrapper).
const std::vector<std::string>& GridDatasets() {
  static const auto* names =
      new std::vector<std::string>{"SharePriceIncrease", "Maritime"};
  return *names;
}
constexpr double kHeightScale = 0.02;  // SharePriceIncrease: 38 series
constexpr size_t kMaritimeWindows = 40;

/// The served dataset: the paper's corpus member with the shortest series
/// among its sub-second-period sets (10 ms period, 361 points), so a stream
/// completes several series within a run. Its published shape sets the
/// fleet (see Traffic); the models are fitted on a small stratified sample.
constexpr char kServedDataset[] = "PickupGestureWiimoteZ";
constexpr size_t kServeTrainPerClass = 3;
/// A p99 needs ten samples beyond it: at least 1,000 decisions over a run's
/// open-loop passes.
constexpr size_t kMinDecisions = 1000;

/// Open-loop passes per run. The latency percentiles pool the passes' raw
/// samples. The passes take the first turn of the run and one late in it,
/// so the open-loop metrics sample the host across the run: on a shared
/// 4-vCPU guest one pass's p50 differed from the next one's by up to 30%
/// within a run, as much as between runs.
constexpr size_t kOpenPasses = 2;

/// Sensors start within one series length of each other, so a pass ramps up
/// and down over one series length each and (rounds - 1) / rounds of its
/// events arrive while every sensor streams. With 2 rounds half of them fell
/// on the ramps, obs_p50_ms lay at the edge between ramp and steady-state
/// latencies, and it spread 0.20 between runs where every other serving
/// latency spread 0.04-0.14.
constexpr size_t kMinRounds = 3;

/// The campaign grid's algorithms: the paper's configurations. A smaller
/// grid timed too unsteadily (ECTS and prob alone: 0.07 s, campaign_s spread
/// 0.36-0.47 over ten runs).
const std::vector<std::string>& GridAlgorithms() {
  static const auto* names = new std::vector<std::string>{
      "ECTS", "ECEC", "TEASER", "ECO-K", "minirocket-logistic+prob"};
  return *names;
}

struct WorkloadSpec {
  std::string name;
  bool wal_armed = false;  // open and closed loops journal to the WAL too
};

const std::vector<WorkloadSpec>& Specs() {
  static const auto* specs = new std::vector<WorkloadSpec>{
      // The serving path without the WAL: the checkpoint walk, trigger
      // decisions and dispatch set the open-loop latencies.
      {"serve", false},
      // The same traffic with the WAL armed: appends on every ingest in the
      // open and closed loops, replay in the drills.
      {"durable", true},
  };
  return *specs;
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// The datasets, the served models and the sensors' layout come from fixed
/// seeds, so every run evaluates and serves the same models on the same
/// series at the same times: run-to-run differences are the machine's and
/// the code's, not those of a lucky draw. (Dealing the series to the
/// sensors per seed moved obs_p50_ms by up to 40% between seeds on a steady
/// machine.) The workload seed draws what the system must handle whatever
/// the content: the order in which each tick's points arrive, and the
/// splits the width and decoration checks fit on.
constexpr uint64_t kDataSeed = 20240325;

bench::CampaignConfig GridConfig(const std::vector<std::string>& algorithms) {
  bench::CampaignConfig config;
  config.height_scale = kHeightScale;
  config.maritime_windows = kMaritimeWindows;
  config.folds = 2;
  config.seed = kDataSeed;
  config.train_budget_seconds = std::numeric_limits<double>::infinity();
  config.predict_budget_seconds = std::numeric_limits<double>::infinity();
  config.algorithms = algorithms;
  config.datasets = GridDatasets();
  return config;
}

etsc::RepositoryOptions GridRepository() {
  const bench::CampaignConfig config = GridConfig({});
  etsc::RepositoryOptions repo;
  repo.seed = config.seed;
  repo.height_scale = config.height_scale;
  repo.maritime_windows = config.maritime_windows;
  return repo;
}

struct Inputs {
  std::vector<etsc::Dataset> grid_data;  // as Campaign::Run generates them
  etsc::Dataset serve_train;
  etsc::Dataset serve_heldout;  // one series per stream
  std::vector<std::shared_ptr<etsc::EarlyClassifier>> models;  // ServedModels()
};

ModelSet Served(const Inputs& in) {
  return ModelSet(in.models.begin(), in.models.end());
}

etsc::Result<std::unique_ptr<etsc::EarlyClassifier>> MakeServed(
    const std::string& name) {
  if (etsc::IsComposedSpec(name)) return etsc::MakeComposedFromSpec(name);
  return etsc::ClassifierRegistry::Global().Create(name);
}

/// Stratified split: per class, the first `per_class` instances of a seeded
/// shuffle go to `train`, the rest (in dataset order) to `heldout`.
void StratifiedSplit(const etsc::Dataset& data, size_t per_class, uint64_t seed,
                     etsc::Dataset* train, etsc::Dataset* heldout) {
  std::vector<size_t> order(data.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  etsc::Rng rng(seed);
  rng.Shuffle(&order);
  std::map<int, size_t> taken;
  std::vector<bool> in_train(data.size(), false);
  std::vector<size_t> train_idx, held_idx;
  for (size_t i : order) {
    if (taken[data.label(i)]++ < per_class) {
      in_train[i] = true;
      train_idx.push_back(i);
    }
  }
  std::sort(train_idx.begin(), train_idx.end());
  for (size_t i = 0; i < data.size(); ++i) {
    if (!in_train[i]) held_idx.push_back(i);
  }
  *train = data.Subset(train_idx);
  *heldout = data.Subset(held_idx);
}

/// The fleet the served dataset's published shape implies: one sensor per
/// published instance, and the fewest series per sensor (at least
/// kMinRounds) whose sessions, over the run's open-loop passes, reach
/// kMinDecisions.
struct Fleet {
  size_t sensors = 0;
  size_t rounds = 0;
};

etsc::Result<Fleet> ServedFleet() {
  ETSC_ASSIGN_OR_RETURN(etsc::UcrLikeSpec spec,
                        etsc::FindUcrLikeSpec(kServedDataset));
  Fleet fleet;
  fleet.sensors = spec.height;
  const size_t per_round = fleet.sensors * ServedModels().size() * kOpenPasses;
  fleet.rounds = std::max(kMinRounds, (kMinDecisions + per_round - 1) / per_round);
  return fleet;
}

struct SetupTimes {
  double generate_s = 0.0;
  double total_s = 0.0;
};

etsc::Result<Inputs> Setup(SetupTimes* times) {
  const auto start = Clock::now();
  Inputs in;
  for (const std::string& name : GridDatasets()) {
    ETSC_ASSIGN_OR_RETURN(etsc::BenchmarkDataset benchmark,
                          etsc::MakeBenchmarkDataset(name, GridRepository()));
    in.grid_data.push_back(std::move(benchmark.data));
  }
  ETSC_ASSIGN_OR_RETURN(etsc::UcrLikeSpec spec,
                        etsc::FindUcrLikeSpec(kServedDataset));
  {
    etsc::Dataset pool = etsc::MakeUcrLike(spec, etsc::SplitSeed(kDataSeed, 100));
    pool.FillMissingValues();
    etsc::Dataset unused;
    StratifiedSplit(pool, kServeTrainPerClass, etsc::SplitSeed(kDataSeed, 101),
                    &in.serve_train, &unused);
  }
  {
    ETSC_ASSIGN_OR_RETURN(Fleet fleet, ServedFleet());
    etsc::UcrLikeSpec heldout = spec;
    heldout.height = fleet.sensors * fleet.rounds;
    in.serve_heldout = etsc::MakeUcrLike(heldout, etsc::SplitSeed(kDataSeed, 102));
    in.serve_heldout.FillMissingValues();
  }
  times->generate_s = SecondsSince(start);
  for (const std::string& name : ServedModels()) {
    ETSC_ASSIGN_OR_RETURN(std::unique_ptr<etsc::EarlyClassifier> model,
                          MakeServed(name));
    ETSC_RETURN_NOT_OK(model->Fit(in.serve_train));
    in.models.push_back(std::move(model));
  }
  times->total_s = SecondsSince(start);
  return in;
}

std::string SaveBytes(const etsc::EarlyClassifier& model) {
  std::ostringstream out;
  const etsc::Status status = model.Save(out);
  return status.ok() ? out.str() : "save failed: " + status.ToString();
}

uint64_t Bits(double v) {
  uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

// ---------------------------------------------------------------------------
// Campaign stage
// ---------------------------------------------------------------------------

struct CampaignResult {
  double wall_s = 0.0;
  std::vector<bench::CampaignCell> cells;  // Campaign::cells() order
};

/// One Campaign::Run from scratch: a fresh journal and report in `dir`.
etsc::Result<CampaignResult> RunCampaign(const std::string& dir) {
  bench::CampaignConfig config = GridConfig(GridAlgorithms());
  config.cache_path = (fs::path(dir) / "campaign.csv").string();
  config.report_path = config.cache_path + ".report.json";
  std::error_code ec;
  for (const std::string& path :
       {config.cache_path, config.cache_path + ".stale", config.report_path}) {
    fs::remove(path, ec);
  }
  bench::Campaign campaign(config);
  CampaignResult out;
  const auto start = Clock::now();
  ETSC_RETURN_NOT_OK(campaign.Run());
  out.wall_s = SecondsSince(start);
  out.cells = campaign.cells();
  return out;
}

/// Bit-exact equality of two sets of mean scores (EvalScores or cells).
template <typename A, typename B>
bool SameScores(const A& x, const B& y) {
  return Bits(x.accuracy) == Bits(y.accuracy) && Bits(x.f1) == Bits(y.f1) &&
         Bits(x.earliness) == Bits(y.earliness) &&
         Bits(x.harmonic_mean) == Bits(y.harmonic_mean);
}

/// Bit-exact equality of two campaigns' cells.
bool SameCells(const CampaignResult& a, const CampaignResult& b) {
  if (a.cells.size() != b.cells.size()) return false;
  for (size_t c = 0; c < a.cells.size(); ++c) {
    const bench::CampaignCell& x = a.cells[c];
    const bench::CampaignCell& y = b.cells[c];
    if (x.algorithm != y.algorithm || x.dataset != y.dataset ||
        x.trained != y.trained || x.failure != y.failure || !SameScores(x, y)) {
      return false;
    }
  }
  return true;
}

double CampaignFitSeconds(const CampaignResult& run) {
  double total = 0.0;
  for (const auto& cell : run.cells) total += cell.train_seconds;
  return total;
}

/// Mean PredictEarly time per test series: every series is tested once
/// across the folds, so each cell weighs by its dataset's size.
double CampaignPredictMicros(const CampaignResult& run,
                             const std::vector<etsc::Dataset>& data) {
  double seconds = 0.0, series = 0.0;
  for (const auto& cell : run.cells) {
    for (size_t d = 0; d < GridDatasets().size(); ++d) {
      if (GridDatasets()[d] != cell.dataset) continue;
      const double n = static_cast<double>(data[d].size());
      seconds += cell.test_seconds_per_instance * n;
      series += n;
    }
  }
  return series == 0.0 ? std::nan("") : seconds / series * 1e6;
}

// ---------------------------------------------------------------------------
// Decorated grid (traced run): the campaign's cells, evaluated exactly as
// Campaign::Run evaluates them, through decorated twins.
// ---------------------------------------------------------------------------

using Prototypes = std::vector<std::vector<std::unique_ptr<etsc::EarlyClassifier>>>;

etsc::Result<Prototypes> PaperPrototypes(const Inputs& in) {
  Prototypes out(GridAlgorithms().size());
  for (size_t a = 0; a < GridAlgorithms().size(); ++a) {
    for (size_t d = 0; d < in.grid_data.size(); ++d) {
      ETSC_ASSIGN_OR_RETURN(
          std::unique_ptr<etsc::EarlyClassifier> proto,
          bench::MakePaperAlgorithm(GridAlgorithms()[a], GridDatasets()[d],
                                    in.grid_data[d].MaxLength()));
      out[a].push_back(std::move(proto));
    }
  }
  return out;
}

struct GridResult {
  double wall_s = 0.0;
  std::vector<etsc::EvaluationResult> cells;  // algorithm-major
};

/// A TaskGroup lane per algorithm running its cells in dataset order, each
/// cell a CrossValidate with Campaign::Run's options.
GridResult RunGrid(const std::vector<etsc::Dataset>& datasets,
                   const Prototypes& prototypes) {
  GridResult out;
  out.cells.resize(prototypes.size() * datasets.size());
  const bench::CampaignConfig config = GridConfig({});
  etsc::EvaluationOptions options;
  options.num_folds = config.folds;
  options.seed = config.seed;
  options.train_budget_seconds = config.train_budget_seconds;
  options.predict_budget_seconds = config.predict_budget_seconds;
  const auto start = Clock::now();
  {
    etsc::TraceSpan grid_span("perfbench", "grid");
    etsc::TaskGroup group;
    for (size_t a = 0; a < prototypes.size(); ++a) {
      group.Run([&, a]() -> etsc::Status {
        for (size_t d = 0; d < datasets.size(); ++d) {
          out.cells[a * datasets.size() + d] =
              etsc::CrossValidate(datasets[d], *prototypes[a][d], options);
        }
        return etsc::Status::OK();
      });
    }
    (void)group.Wait();
  }
  out.wall_s = SecondsSince(start);
  return out;
}

/// Fits one clone of each prototype on `train`, all concurrently (separate
/// threads at width 1, pool tasks otherwise); returns their Save bytes.
std::vector<std::string> FitAndSave(
    const std::vector<const etsc::EarlyClassifier*>& prototypes,
    const etsc::Dataset& train, size_t width) {
  etsc::SetMaxParallelism(width);
  std::vector<std::string> bytes(prototypes.size());
  const auto fit = [&](size_t a) {
    std::unique_ptr<etsc::EarlyClassifier> model = prototypes[a]->CloneUntrained();
    const etsc::Status status = model->Fit(train);
    bytes[a] = status.ok() ? SaveBytes(*model) : "fit failed: " + status.ToString();
  };
  if (width == 1) {
    std::vector<std::jthread> threads;
    for (size_t a = 0; a < prototypes.size(); ++a) {
      threads.emplace_back([&fit, a] { fit(a); });
    }
  } else {
    etsc::TaskGroup group;
    for (size_t a = 0; a < prototypes.size(); ++a) {
      group.Run([&fit, a] {
        fit(a);
        return etsc::Status::OK();
      });
    }
    (void)group.Wait();
  }
  return bytes;
}

std::string Fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return std::nan("");
  double total = 0.0;
  for (double x : v) total += x;
  return total / static_cast<double>(v.size());
}

/// A percentile of the run's raw samples, reported only when at least ten
/// samples lie beyond it; otherwise the run fails.
void AddPercentile(Report* report, const std::string& name,
                   const std::vector<double>& samples, double p) {
  report->Check(PercentileSupported(samples.size(), p),
                name + ": at least 10 of " + std::to_string(samples.size()) +
                    " samples beyond the percentile");
  report->AddValue(name, "ms", Percentile(samples, p), samples.size());
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

class Run {
 public:
  Run(const Args& args, const WorkloadSpec& spec) : args_(args), spec_(spec) {}

  int Execute();

 private:
  etsc::Status SetupAll();
  etsc::Status Measure();
  void WidthCheck();
  etsc::Status Traced();
  void Emit();

  std::string WorkPath(const std::string& leaf) const {
    return (fs::path(args_.work_dir) / leaf).string();
  }
  size_t Width() const { return nproc_; }
  std::string ServeWal(const std::string& leaf) const {
    return spec_.wal_armed ? WorkPath(leaf) : "";
  }

  const Args& args_;
  const WorkloadSpec& spec_;
  Report report_;
  size_t nproc_ = 1;
  Inputs in_;
  Prototypes prototypes_;
  Traffic traffic_;
  std::vector<double> setup_s_, generate_s_;

  // Untraced measurements.
  std::vector<CampaignResult> campaigns_;
  OpenLoopResult open_;
  std::vector<double> obs_per_s_, recover_s_;
  ServeCounts serve_counts_;
};

etsc::Status Run::SetupAll() {
  std::vector<std::string> first_saves;
  uint64_t first_fingerprint = 0;
  for (size_t rep = 0; rep < kSetupRepetitions; ++rep) {
    SetupTimes times;
    ETSC_ASSIGN_OR_RETURN(Inputs in, Setup(&times));
    setup_s_.push_back(times.total_s);
    generate_s_.push_back(times.generate_s);
    uint64_t fingerprint = in.serve_train.Fingerprint() ^
                           (in.serve_heldout.Fingerprint() * 31);
    for (const auto& d : in.grid_data) fingerprint = fingerprint * 131 + d.Fingerprint();
    std::vector<std::string> saves;
    for (const auto& model : in.models) saves.push_back(SaveBytes(*model));
    if (rep == 0) {
      first_saves = saves;
      first_fingerprint = fingerprint;
    } else {
      report_.Check(fingerprint == first_fingerprint,
                    "setup repetition " + std::to_string(rep) +
                        " generates identical inputs");
      report_.Check(saves == first_saves,
                    "setup repetition " + std::to_string(rep) +
                        " fits byte-identical served models");
    }
    in_ = std::move(in);
  }
  std::fprintf(stderr, "perfbench: setup %.2f s median of %zu\n",
               Summarize(setup_s_).median, setup_s_.size());
  ETSC_ASSIGN_OR_RETURN(prototypes_, PaperPrototypes(in_));
  ETSC_ASSIGN_OR_RETURN(Fleet fleet, ServedFleet());
  ETSC_ASSIGN_OR_RETURN(traffic_,
                        BuildTraffic(in_.serve_heldout, Served(in_), fleet.sensors,
                                     fleet.rounds, etsc::SplitSeed(kDataSeed, 103),
                                     etsc::SplitSeed(args_.seed, 200)));
  report_.Note("serve_sensors", std::to_string(traffic_.sensors));
  report_.Note("serve_rounds", std::to_string(traffic_.rounds));
  report_.Note("serve_period_s", Fixed(traffic_.period_s, 4));
  report_.Note("serve_events", std::to_string(traffic_.trace.size()));
  return etsc::Status::OK();
}

/// Appends one open-loop pass's samples to the pooled ones.
void AppendPass(const OpenLoopResult& pass, OpenLoopResult* pooled) {
  const auto append = [](const std::vector<double>& from, std::vector<double>* to) {
    to->insert(to->end(), from.begin(), from.end());
  };
  append(pass.obs_ms, &pooled->obs_ms);
  append(pass.decision_ms, &pooled->decision_ms);
  append(pass.queue_wait_ms, &pooled->queue_wait_ms);
  append(pass.lag_ms, &pooled->lag_ms);
  append(pass.dispatch_ms, &pooled->dispatch_ms);
  append(pass.batch_sessions, &pooled->batch_sessions);
  pooled->off_cpu_ms += pass.off_cpu_ms;
}

etsc::Status Run::Measure() {
  const ModelSet models = Served(in_);

  // The stages take turns: each next turn goes to the stage furthest behind
  // its minimum repetitions (open, campaign, closed, drill, campaign,
  // closed, open, drill, campaign, closed), then, while the budget lasts, to
  // the one other than open that has had the least time. So every metric
  // samples the start, the middle and the end of the run, and a slow spell
  // on a shared machine shifts all of them a little instead of one of them a
  // lot.
  //
  // The serving stages run at pool width 1: the serving thread does all the
  // work and never blocks, so its CPU time is its elapsed time net of the
  // time the host took its vCPU away (ThreadCpuMs). At the pool's width a
  // batch waits for its slowest worker, and on a shared host one of them is
  // often descheduled for milliseconds: on a 4-vCPU guest the open loop's
  // p99 then varied 7.6-14.7 ms between passes and closed-loop throughput
  // 106k-285k obs/s between runs. An open-loop pass lasts as long as its
  // traffic, whatever the budget, so it gets no turns beyond its minimum.
  //
  // A traced run reports no end-to-end metric: its untraced stages are the
  // baseline of its checks and of the tracing overhead, so each runs once.
  enum Stage { kOpen, kCampaign, kClosed, kDrill, kStages };
  const double budget = args_.trace ? 0.0 : static_cast<double>(args_.seconds);
  size_t minimum[kStages] = {kOpenPasses, 3, 3, 2};
  if (args_.trace) std::fill(std::begin(minimum), std::end(minimum), 1);
  double used[kStages] = {};
  size_t reps[kStages] = {};
  size_t mismatches[kStages] = {};
  size_t torn_misses = 0;
  for (;;) {
    int next = -1;
    for (int st = 0; st < kStages; ++st) {
      const auto done = [&](int x) {
        return static_cast<double>(reps[x]) / static_cast<double>(minimum[x]);
      };
      if (reps[st] < minimum[st] && (next < 0 || done(st) < done(next))) next = st;
    }
    if (next < 0) {
      double total = 0.0;
      for (double u : used) total += u;
      if (total >= budget) break;
      for (int st = kCampaign; st < kStages; ++st) {
        if (next < 0 || used[st] < used[next]) next = st;
      }
    }
    const auto turn = Clock::now();
    if (next == kOpen) {
      etsc::SetMaxParallelism(1);
      const std::string wal = ServeWal("open.wal");
      if (!wal.empty()) RemoveWal(wal);
      ETSC_ASSIGN_OR_RETURN(OpenLoopResult pass,
                            OpenLoop(models, traffic_, wal, &serve_counts_));
      if (!wal.empty()) RemoveWal(wal);
      mismatches[kOpen] += (pass.outcomes == traffic_.reference) ? 0 : 1;
      AppendPass(pass, &open_);
      std::fprintf(stderr,
                   "perfbench: open loop %.1f s, p50 %.3f ms p99 %.3f ms over "
                   "%zu events, decision p99 %.3f ms over %zu\n",
                   SecondsSince(turn), Percentile(pass.obs_ms, 0.5),
                   Percentile(pass.obs_ms, 0.99), pass.obs_ms.size(),
                   Percentile(pass.decision_ms, 0.99), pass.decision_ms.size());
    } else if (next == kCampaign) {
      etsc::SetMaxParallelism(Width());
      ETSC_ASSIGN_OR_RETURN(CampaignResult run, RunCampaign(args_.work_dir));
      campaigns_.push_back(std::move(run));
      const CampaignResult& c = campaigns_.back();
      mismatches[kCampaign] += SameCells(campaigns_[0], c) ? 0 : 1;
      std::fprintf(stderr, "perfbench: campaign %zu wall %.2f s fit %.2f s\n",
                   campaigns_.size(), c.wall_s, CampaignFitSeconds(c));
    } else if (next == kClosed) {
      etsc::SetMaxParallelism(1);
      const std::string wal = ServeWal("closed.wal");
      if (!wal.empty()) RemoveWal(wal);
      ETSC_ASSIGN_OR_RETURN(ClosedLoopResult closed,
                            ClosedLoop(models, traffic_, wal, false, &serve_counts_));
      if (!wal.empty()) RemoveWal(wal);
      mismatches[kClosed] += (closed.outcomes == traffic_.reference) ? 0 : 1;
      obs_per_s_.push_back(static_cast<double>(traffic_.trace.size()) /
                           closed.seconds);
      std::fprintf(stderr, "perfbench: closed loop %.0f obs/s %.2f s\n",
                   obs_per_s_.back(), closed.seconds);
    } else {
      etsc::SetMaxParallelism(Width());
      ETSC_ASSIGN_OR_RETURN(DrillResult drill,
                            Drill(models, traffic_, WorkPath("drill.wal"),
                                  &serve_counts_));
      mismatches[kDrill] += (drill.outcomes == traffic_.reference) ? 0 : 1;
      torn_misses += drill.torn_rows == 1 ? 0 : 1;
      recover_s_.push_back(drill.recover_s);
      std::fprintf(stderr, "perfbench: drill recover %.4f s resume %.3f s\n",
                   drill.recover_s, drill.resume_s);
    }
    used[next] += SecondsSince(turn);
    ++reps[next];
  }
  report_.Note("open_loop_passes", std::to_string(reps[kOpen]));
  report_.Note("open_loop_off_cpu_ms", Fixed(open_.off_cpu_ms, 1));

  size_t cells_failed = 0;
  for (const CampaignResult& run : campaigns_) {
    for (const auto& cell : run.cells) {
      cells_failed += (!cell.trained || !cell.failure.empty()) ? 1 : 0;
    }
    report_.Count("campaign_cells", run.cells.size(), 0);
  }
  report_.Count("campaign_cells", 0, cells_failed);
  report_.Check(campaigns_[0].cells.size() ==
                    GridAlgorithms().size() * GridDatasets().size(),
                "Campaign::Run reports every grid cell");
  report_.Check(mismatches[kCampaign] == 0,
                "every Campaign::Run reproduces the first one's cell scores "
                "bit for bit (" + std::to_string(reps[kCampaign]) + " runs)");
  report_.Check(mismatches[kOpen] == 0,
                "every open-loop engine replay equals ReplaySequential (" +
                    std::to_string(reps[kOpen]) + " passes)");
  report_.Check(mismatches[kClosed] == 0,
                "every closed-loop engine replay equals ReplaySequential (" +
                    std::to_string(reps[kClosed]) + " loops)");
  report_.Check(mismatches[kDrill] == 0,
                "every crash + Recover + resume equals the uncrashed run (" +
                    std::to_string(reps[kDrill]) + " drills)");
  report_.Check(torn_misses == 0, "every drill's torn row is skipped");
  return etsc::Status::OK();
}

/// Width check: one fold-sized split per grid algorithm, fitted at pool
/// width 1 and at width nproc, must save identical bytes.
void Run::WidthCheck() {
  etsc::Dataset train, rest;
  StratifiedSplit(in_.grid_data[0], kCheckSplitPerClass,
                  etsc::SplitSeed(args_.seed, 400), &train, &rest);
  std::vector<const etsc::EarlyClassifier*> protos;
  for (const auto& per_dataset : prototypes_) protos.push_back(per_dataset[0].get());
  const auto serial = FitAndSave(protos, train, 1);
  const auto pooled = FitAndSave(protos, train, Width());
  for (size_t a = 0; a < protos.size(); ++a) {
    const bool saved = serial[a].rfind("ETSC", 0) == 0;
    report_.Check(serial[a] == pooled[a] && saved,
                  GridAlgorithms()[a] + ": Save bytes at pool width 1 "
                                             "equal those at width " +
                      std::to_string(Width()));
    report_.Count("width_check_fits", 2, saved ? 0 : 1);
  }
}

etsc::Status Run::Traced() {
  etsc::trace::Clear();
  etsc::trace::SetEnabled(true);

  // The campaign's own spans: lanes (its cells), journal appends, pool use.
  etsc::SetMaxParallelism(Width());
  ETSC_ASSIGN_OR_RETURN(CampaignResult traced_campaign,
                        RunCampaign(args_.work_dir));
  report_.Check(SameCells(campaigns_[0], traced_campaign),
                "traced Campaign::Run reproduces the untraced cell scores");

  // Decorated grid: the same cells through the decorated twins.
  const LayerTotals before_grid = LayerTotals::Now();
  Prototypes decorated(GridAlgorithms().size());
  for (size_t a = 0; a < prototypes_.size(); ++a) {
    for (size_t d = 0; d < prototypes_[a].size(); ++d) {
      ETSC_ASSIGN_OR_RETURN(
          std::unique_ptr<etsc::EarlyClassifier> twin,
          ComposedTwin(*prototypes_[a][d],
                       GridAlgorithms()[a] + "/" + GridDatasets()[d], true));
      decorated[a].push_back(std::move(twin));
    }
  }
  const GridResult traced_grid = RunGrid(in_.grid_data, decorated);
  const LayerTotals grid_totals = LayerTotals::Now() - before_grid;
  {
    bool same = true;
    for (size_t a = 0; a < prototypes_.size(); ++a) {
      for (size_t d = 0; d < GridDatasets().size(); ++d) {
        const etsc::EvaluationResult& eval =
            traced_grid.cells[a * GridDatasets().size() + d];
        const bench::CampaignCell* cell = nullptr;
        for (const auto& c : campaigns_[0].cells) {
          if (c.algorithm == GridAlgorithms()[a] &&
              c.dataset == GridDatasets()[d]) {
            cell = &c;
          }
        }
        same = same && cell != nullptr && eval.trained() == cell->trained &&
               SameScores(eval.MeanScores(), *cell);
      }
    }
    report_.Check(same,
                  "decorated traced grid reproduces Campaign::Run's cell scores");
  }

  // Decoration check on model bytes: decorated vs undecorated twins fitted
  // on the same split of the first grid dataset. These fits (and the served
  // twins' below) stay out of the span file, which covers the measured
  // stages only.
  etsc::trace::SetEnabled(false);
  {
    etsc::Dataset train, rest;
    StratifiedSplit(in_.grid_data[0], kCheckSplitPerClass,
                    etsc::SplitSeed(args_.seed, 400), &train, &rest);
    std::vector<std::unique_ptr<etsc::EarlyClassifier>> plain, traced;
    std::vector<const etsc::EarlyClassifier*> plain_ptrs, traced_ptrs;
    for (size_t a = 0; a < prototypes_.size(); ++a) {
      ETSC_ASSIGN_OR_RETURN(auto p, ComposedTwin(*prototypes_[a][0], "check", false));
      ETSC_ASSIGN_OR_RETURN(auto t, ComposedTwin(*prototypes_[a][0], "check", true));
      plain_ptrs.push_back(p.get());
      traced_ptrs.push_back(t.get());
      plain.push_back(std::move(p));
      traced.push_back(std::move(t));
    }
    const auto plain_bytes = FitAndSave(plain_ptrs, train, Width());
    const auto traced_bytes = FitAndSave(traced_ptrs, train, Width());
    for (size_t a = 0; a < prototypes_.size(); ++a) {
      report_.Check(plain_bytes[a] == traced_bytes[a] &&
                        plain_bytes[a].rfind("ETSC", 0) == 0,
                    GridAlgorithms()[a] +
                        ": decorated model saves the same bytes as undecorated");
    }
  }

  // Decorated served models, fitted like setup fits them.
  ModelSet decorated_models;
  for (size_t m = 0; m < in_.models.size(); ++m) {
    ETSC_ASSIGN_OR_RETURN(std::unique_ptr<etsc::EarlyClassifier> twin,
                          ComposedTwin(*in_.models[m], ServedModels()[m], true));
    ETSC_RETURN_NOT_OK(twin->Fit(in_.serve_train));
    decorated_models.push_back(std::move(twin));
  }
  etsc::trace::SetEnabled(true);
  const LayerTotals before_serving = LayerTotals::Now();
  etsc::SetMaxParallelism(1);

  // Closed loops through the decorated models: one in the workload's own
  // configuration, untimed per ingest, for the tracing overhead; one with
  // the WAL off and one with it on, timing every Ingest, for its cost.
  ServeCounts traced_counts;
  const std::string own_wal = ServeWal("traced.wal");
  if (!own_wal.empty()) RemoveWal(own_wal);
  ETSC_ASSIGN_OR_RETURN(ClosedLoopResult own,
                        ClosedLoop(decorated_models, traffic_, own_wal, false,
                                   &traced_counts));
  if (!own_wal.empty()) RemoveWal(own_wal);
  ETSC_ASSIGN_OR_RETURN(ClosedLoopResult unarmed,
                        ClosedLoop(decorated_models, traffic_, "", true,
                                   &traced_counts));
  RemoveWal(WorkPath("armed.wal"));
  ETSC_ASSIGN_OR_RETURN(ClosedLoopResult armed,
                        ClosedLoop(decorated_models, traffic_,
                                   WorkPath("armed.wal"), true, &traced_counts));
  RemoveWal(WorkPath("armed.wal"));
  etsc::SetMaxParallelism(Width());
  ETSC_ASSIGN_OR_RETURN(DrillResult drill,
                        Drill(decorated_models, traffic_,
                              WorkPath("traced-drill.wal"), &traced_counts));
  report_.Check((own.outcomes == traffic_.reference) &&
                    (unarmed.outcomes == traffic_.reference) &&
                    (armed.outcomes == traffic_.reference) &&
                    (drill.outcomes == traffic_.reference),
                "decorated traced serving reproduces the untraced outcomes");
  const LayerTotals serving_totals = LayerTotals::Now() - before_serving;

  const WalkResult walk = WalkProbe(decorated_models, in_.serve_heldout);
  etsc::trace::SetEnabled(false);

  // Span file and self times.
  const std::string chrome = etsc::trace::ToChromeJson();
  {
    std::error_code ec;
    fs::create_directories(args_.results_dir, ec);
    const std::string path = (fs::path(args_.results_dir) /
                              (spec_.name + "-seed" + std::to_string(args_.seed) +
                               ".trace.json"))
                                 .string();
    std::ofstream out(path);
    out << chrome;
    report_.Check(out.good(), "span file written to " + path);
    report_.Note("span_file", path);
  }
  ETSC_ASSIGN_OR_RETURN(std::vector<SpanRecord> spans, ParseSpans(chrome));
  // Each analysis keeps to its own stage's interval: the serving stages
  // record pool tasks too.
  const std::vector<const SpanRecord*> campaign_spans =
      SpansWithin(spans, "campaign_run");
  const double trigger_fit_self_us = SelfMicros(
      SpansWithin(spans, "grid"),
      "trigger.fit");

  // Lanes: an algorithm's cells run one after another on one lane, so its
  // lane time runs from its first cell's start to its last cell's end.
  std::map<std::string, std::pair<double, double>> lanes;
  std::vector<double> journal_us;
  for (const SpanRecord* span : campaign_spans) {
    if (span->name == "journal_append") journal_us.push_back(span->dur_us);
    if (span->name.rfind("cell:", 0) != 0) continue;
    const std::string algorithm =
        span->name.substr(5, span->name.rfind('/') - 5);
    const double end = span->start_us + span->dur_us;
    auto [it, inserted] = lanes.emplace(algorithm, std::make_pair(span->start_us, end));
    if (!inserted) {
      it->second.first = std::min(it->second.first, span->start_us);
      it->second.second = std::max(it->second.second, end);
    }
  }
  std::vector<double> lane_s;
  for (const auto& [algorithm, interval] : lanes) {
    lane_s.push_back((interval.second - interval.first) / 1e6);
  }
  report_.Check(lane_s.size() == GridAlgorithms().size(),
                "traced Campaign::Run records one lane per algorithm");
  const double pool_busy =
      GridBusyMicros(campaign_spans) /
      (traced_campaign.wall_s * 1e6 * static_cast<double>(Width()));

  // Per-layer metrics.
  report_.AddSamples("data.generate_s", "s", generate_s_);
  const ProbeResults probes = [&] {
    std::vector<const etsc::Dataset*> data;
    for (const auto& d : in_.grid_data) data.push_back(&d);
    data.push_back(&in_.serve_train);
    return RunProbes(data);
  }();
  report_.AddValue("simd.rotate_phasors_ns", "ns", probes.rotate_phasors.ns_per_call);
  report_.AddValue("simd.rotate_phasors_bytes", "B", probes.rotate_phasors.bytes_per_call);
  report_.AddValue("simd.split_scan_ns", "ns", probes.split_scan.ns_per_call);
  report_.AddValue("simd.split_scan_bytes", "B", probes.split_scan.bytes_per_call);
  report_.AddValue("simd.sum_sq_diff_ns", "ns", probes.sum_sq_diff.ns_per_call);
  report_.AddValue("simd.sum_sq_diff_bytes", "B", probes.sum_sq_diff.bytes_per_call);
  report_.AddValue("ml.sliding_dft_us", "us", probes.sliding_dft_us);
  report_.AddValue("ml.info_gain_bins_ms", "ms", probes.info_gain_bins_ms);
  report_.AddValue("ml.sfa_fit_ms", "ms", probes.sfa_fit_ms);

  // Fit layers from the decorated grid (what fit_s pays); predict and decide
  // from the decorated serving stages (what the serving metrics pay).
  const LayerTotals& fits = grid_totals;
  const LayerTotals& walks = serving_totals;
  const auto per_call = [](const CallTotals& t, double scale) {
    return static_cast<double>(t.ns) * scale /
           static_cast<double>(std::max<uint64_t>(1, t.calls));
  };
  report_.AddValue("bank.fit_s", "s", static_cast<double>(fits.bank_fit.ns) / 1e9);
  report_.AddValue("bank.fit_calls", "count", static_cast<double>(fits.bank_fit.calls));
  report_.AddValue("calib.fit_s", "s", static_cast<double>(fits.calib_fit.ns) / 1e9);
  report_.AddValue("calib.fit_calls", "count",
                   static_cast<double>(fits.calib_fit.calls));
  report_.AddValue("bank.predict_us", "us", per_call(walks.bank_predict, 1e-3));
  report_.AddValue("bank.predict_calls", "count",
                   static_cast<double>(walks.bank_predict.calls));
  report_.AddValue("trigger.fit_s", "s", trigger_fit_self_us / 1e6);
  report_.AddValue("trigger.decide_ns", "ns", per_call(walks.trigger_decide, 1.0));
  report_.AddValue("trigger.decide_calls", "count",
                   static_cast<double>(walks.trigger_decide.calls));

  const double batch_cp = Mean(walk.batch_checkpoints);
  const double streamed_cp = Mean(walk.streamed_checkpoints);
  report_.AddValue("walk.checkpoints_per_decision_batch", "count", batch_cp,
                   walk.batch_checkpoints.size());
  report_.AddValue("walk.checkpoints_per_decision_streamed", "count", streamed_cp,
                   walk.streamed_checkpoints.size());
  report_.AddValue("walk.useful_ratio", "ratio", batch_cp / streamed_cp);
  // Sessions stop pushing once decided, so the "last" decile is the latest
  // one that at least ten undecided pushes reached.
  size_t last_decile = 0;
  for (size_t d = 0; d < walk.push_us_by_decile.size(); ++d) {
    if (walk.push_us_by_decile[d].size() >= 10) last_decile = d;
  }
  report_.AddValue("stream.push_us_first_decile", "us",
                   Summarize(walk.push_us_by_decile[0]).median,
                   walk.push_us_by_decile[0].size());
  report_.AddValue("stream.push_us_last_decile", "us",
                   Summarize(walk.push_us_by_decile[last_decile]).median,
                   walk.push_us_by_decile[last_decile].size());
  report_.Note("stream.last_decile", std::to_string(last_decile));

  std::vector<double> fold_fit;
  for (const auto& cell : traced_grid.cells) {
    for (const auto& fold : cell.folds) fold_fit.push_back(fold.train_seconds);
  }
  report_.AddValue("cv.fold_fit_s_max", "s",
                   *std::max_element(fold_fit.begin(), fold_fit.end()),
                   fold_fit.size());
  report_.AddValue("cv.fold_fit_s_median", "s", Summarize(fold_fit).median,
                   fold_fit.size());
  report_.AddValue("pool.busy_ratio", "ratio", pool_busy);
  report_.AddValue("campaign.lane_s_max", "s",
                   *std::max_element(lane_s.begin(), lane_s.end()), lane_s.size());
  report_.AddValue("campaign.lane_s_median", "s", Summarize(lane_s).median,
                   lane_s.size());
  report_.AddValue("journal.append_us", "us", Mean(journal_us), journal_us.size());

  // The open loop's own timings come from the untraced run: they are taken
  // around the engine's public calls, not by the decorators.
  report_.AddValue("serving.ingest_ns", "ns", unarmed.ingest_ns,
                   traffic_.trace.size());
  report_.AddValue("serving.dispatch_ms", "ms", Mean(open_.dispatch_ms),
                   open_.dispatch_ms.size());
  report_.AddValue("serving.batch_sessions", "count", Mean(open_.batch_sessions),
                   open_.batch_sessions.size());
  report_.AddValue("serving.queue_wait_ms", "ms",
                   Percentile(open_.queue_wait_ms, 0.5), open_.queue_wait_ms.size());
  report_.AddValue("serving.generator_lag_ms", "ms", Percentile(open_.lag_ms, 0.99),
                   open_.lag_ms.size());
  report_.AddValue("wal.append_ns", "ns", armed.ingest_ns - unarmed.ingest_ns,
                   traffic_.trace.size());
  report_.AddValue("wal.bytes_per_obs", "B",
                   drill.wal_bytes /
                       static_cast<double>(drill.observations_before_crash));
  report_.AddValue("wal.replay_rows_per_s", "1/s",
                   static_cast<double>(drill.wal_rows) /
                       drill.recover_s);
  report_.AddValue("wal.torn_rows", "count",
                   static_cast<double>(drill.torn_rows));
  report_.AddValue("wal.resume_s", "s", drill.resume_s);

  std::vector<double> untraced_walls;
  for (const auto& c : campaigns_) untraced_walls.push_back(c.wall_s);
  report_.AddValue("trace.grid_overhead", "ratio",
                   traced_campaign.wall_s / Summarize(untraced_walls).median - 1.0);
  report_.AddValue("trace.serve_overhead", "ratio",
                   Summarize(obs_per_s_).median * own.seconds /
                           static_cast<double>(traffic_.trace.size()) -
                       1.0);
  return etsc::Status::OK();
}

int Run::Execute() {
  nproc_ = std::max<unsigned>(1, std::thread::hardware_concurrency());
  etsc::SetMaxParallelism(nproc_);
  report_.Note("workload", spec_.name);
  report_.Note("seed", std::to_string(args_.seed));
  report_.Note("seconds", std::to_string(args_.seconds));
  report_.Note("trace", args_.trace ? "1" : "0");
  report_.Note("revision", args_.revision);
  report_.Note("nproc", std::to_string(nproc_));
  report_.Note("pool_width", std::to_string(Width()));
  report_.Note("serving_pool_width", "1");
  report_.Note("isa_compiled", etsc::simd::CompiledIsa());
  report_.Note("isa_active", etsc::simd::ActiveIsa());

  std::error_code ec;
  fs::create_directories(args_.work_dir, ec);
  auto phase = Clock::now();
  const auto progress = [&](const char* what) {
    std::fprintf(stderr, "perfbench: %s %.2f s\n", what, SecondsSince(phase));
    phase = Clock::now();
  };
  etsc::Status status = SetupAll();
  progress("setup and references");
  if (status.ok()) status = Measure();
  progress("measured stages");
  if (status.ok()) {
    WidthCheck();
    progress("width check");
  }
  if (status.ok() && args_.trace) {
    status = Traced();
    progress("traced stages");
  }
  report_.Check(status.ok(), "run completed: " + status.ToString());
  Emit();
  fs::remove_all(args_.work_dir, ec);
  return report_.correct() ? 0 : 1;
}

void Run::Emit() {
  if (!args_.trace && report_.correct()) {
    report_.AddSamples("setup_s", "s", setup_s_);
    report_.AddValue("peak_rss_mb", "MB", PeakRssMb());
    std::vector<double> walls, fits, predicts;
    for (const auto& c : campaigns_) {
      walls.push_back(c.wall_s);
      fits.push_back(CampaignFitSeconds(c));
      predicts.push_back(CampaignPredictMicros(c, in_.grid_data));
    }
    report_.AddSamples("campaign_s", "s", walls);
    report_.AddSamples("fit_s", "s", fits);
    report_.AddSamples("predict_us", "us", predicts);
    double accuracy = 0.0, earliness = 0.0;
    for (const auto& cell : campaigns_[0].cells) {
      accuracy += cell.accuracy;
      earliness += cell.earliness;
    }
    const double cells = static_cast<double>(campaigns_[0].cells.size());
    report_.AddValue("accuracy", "ratio", accuracy / cells, campaigns_[0].cells.size());
    report_.AddValue("earliness", "ratio", earliness / cells,
                     campaigns_[0].cells.size());
    AddPercentile(&report_, "obs_p50_ms", open_.obs_ms, 0.5);
    AddPercentile(&report_, "obs_p99_ms", open_.obs_ms, 0.99);
    AddPercentile(&report_, "decision_p99_ms", open_.decision_ms, 0.99);
    report_.AddSamples("obs_per_s", "1/s", obs_per_s_);
  }
  // Agreement with batch PredictEarly, overall and per served model.
  if (!traffic_.reference.empty()) {
    std::vector<size_t> agree(ServedModels().size(), 0), total(ServedModels().size(), 0);
    for (size_t s = 0; s < traffic_.sessions; ++s) {
      const auto& served = traffic_.reference[s];
      const auto& batch = traffic_.batch[s];
      ++total[ModelOf(s)];
      if (!served.failed && served.label == batch.label &&
          served.prefix_length == batch.prefix_length) {
        ++agree[ModelOf(s)];
      }
    }
    size_t all = 0;
    for (size_t m = 0; m < agree.size(); ++m) {
      all += agree[m];
      const double share = static_cast<double>(agree[m]) /
                           static_cast<double>(std::max<size_t>(1, total[m]));
      report_.Note("decision_agreement." + ServedModels()[m], Fixed(share, 4));
      if (args_.trace) {
        report_.AddValue("serve.agreement_" + ServedKeys()[m], "ratio", share,
                         total[m]);
      }
    }
    if (!args_.trace && report_.correct()) {
      report_.AddValue("decision_agreement", "ratio",
                       static_cast<double>(all) /
                           static_cast<double>(traffic_.sessions),
                       traffic_.sessions);
      report_.AddSamples("recover_s", "s", recover_s_);
    }
  }
  report_.Count("serve_open", serve_counts_.opens, serve_counts_.opens_failed);
  report_.Count("serve_ingest", serve_counts_.ingests, serve_counts_.ingests_failed);
  report_.Count("serve_sessions", serve_counts_.sessions,
                serve_counts_.sessions_failed + serve_counts_.sessions_forced);

  const std::string record = report_.Record();
  std::error_code ec;
  fs::create_directories(args_.results_dir, ec);
  const std::string path =
      (fs::path(args_.results_dir) /
       (spec_.name + "-seed" + std::to_string(args_.seed) + "-trace" +
        (args_.trace ? "1" : "0") + ".json"))
          .string();
  std::ofstream(path) << record << '\n';
  for (const std::string& failure : report_.failures()) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("%s\n", record.c_str());
  std::printf("%s\n", report_.ResultLine().c_str());
  std::fflush(stdout);
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const auto& spec : Specs()) names.push_back(spec.name);
  return names;
}

int RunWorkload(const Args& args) {
  etsc::RegisterBuiltinClassifiers();
  for (const auto& spec : Specs()) {
    if (spec.name == args.workload) return Run(args, spec).Execute();
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
  return 2;
}

}  // namespace perfbench
