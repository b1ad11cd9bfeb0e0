#include "bench/bench_common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string_view>
#include <thread>
#include <utility>

#include "algos/ecec.h"
#include "algos/economy_k.h"
#include "algos/ects.h"
#include "algos/edsc.h"
#include "algos/registrations.h"
#include "algos/strut.h"
#include "algos/teaser.h"
#include "core/composed.h"
#include "core/counters.h"
#include "core/env.h"
#include "core/evaluation.h"
#include "core/fabric.h"
#include "core/fault.h"
#include "core/json.h"
#include "core/log.h"
#include "core/model_cache.h"
#include "core/parallel.h"
#include "core/rowlog.h"
#include "core/simd.h"
#include "core/trace.h"

namespace etsc::bench {

namespace {

/// Non-empty entries of a comma list.
std::vector<std::string> SplitCommas(std::string_view s) {
  std::vector<std::string_view> fields;
  rowlog::SplitFields(s, &fields);
  std::vector<std::string> out;
  for (const std::string_view field : fields) {
    if (!field.empty()) out.emplace_back(field);
  }
  return out;
}

}  // namespace

bool ParseShard(std::string_view spec, size_t* index, size_t* count) {
  const size_t slash = spec.find('/');
  uint64_t i = 0;
  uint64_t n = 0;
  if (slash == std::string_view::npos ||
      !rowlog::ParseInt(spec.substr(0, slash), &i) ||
      !rowlog::ParseInt(spec.substr(slash + 1), &n) || n == 0 || i >= n) {
    return false;
  }
  *index = static_cast<size_t>(i);
  *count = static_cast<size_t>(n);
  return true;
}

const std::vector<std::string>& PaperAlgorithms() {
  static const auto* kAlgorithms = new std::vector<std::string>{
      "ECEC", "ECO-K", "ECTS", "EDSC", "TEASER", "S-MINI", "S-MLSTM", "S-WEASEL"};
  return *kAlgorithms;
}

CampaignConfig CampaignConfig::FromEnv() {
  CampaignConfig config;
  config.height_scale = env::NumberOr("campaign", "ETSC_BENCH_SCALE",
                                      config.height_scale, 0.0, 1e6);
  // Stratified CV needs two folds at least (StratifiedKFold checks k >= 2); a smaller value warns and keeps the default.
  config.folds = env::CountOr("campaign", "ETSC_BENCH_FOLDS", config.folds, 2,
                              1000000000);
  config.train_budget_seconds =
      env::NumberOr("campaign", "ETSC_BENCH_BUDGET",
                    config.train_budget_seconds, 0.0, 1e12);
  config.predict_budget_seconds =
      env::NumberOr("campaign", "ETSC_BENCH_PREDICT_BUDGET",
                    config.predict_budget_seconds, 0.0, 1e12);
  config.maritime_windows = env::CountOr("campaign", "ETSC_BENCH_MARITIME",
                                         config.maritime_windows, 0,
                                         1000000000);
  config.cost_alpha = env::NumberOr("campaign", "ETSC_BENCH_ALPHA",
                                    config.cost_alpha, 0.0, 1.0);
  const std::string algos = env::StringOr("ETSC_BENCH_ALGOS", "");
  config.algorithms = algos.empty() ? PaperAlgorithms() : SplitCommas(algos);
  const std::string datasets = env::StringOr("ETSC_BENCH_DATASETS", "");
  config.datasets =
      datasets.empty() ? BenchmarkDatasetNames() : SplitCommas(datasets);
  config.cache_path =
      env::StringOr("ETSC_BENCH_CACHE", config.cache_path.c_str());
  config.report_path = env::StringOr("ETSC_BENCH_REPORT", "");
  config.report_only = !env::StringOr("ETSC_BENCH_REPORT_ONLY", "").empty();
  const std::string shard = env::StringOr("ETSC_BENCH_SHARD", "");
  if (!shard.empty() && !ParseShard(shard, &config.shard_index,
                                    &config.shard_count)) {
    Logf(LogLevel::kWarn, "campaign",
         "ETSC_BENCH_SHARD=\"%s\" is not \"i/N\" with 0 <= i < N; running "
         "the whole campaign",
         shard.c_str());
  }
  config.supervisor = SupervisorOptions::FromEnv();
  config.fault_spec = env::StringOr("ETSC_BENCH_FAULT", "");
  return config;
}

std::string CampaignConfig::Fingerprint() const {
  // retries and quarantine_after are part of the identity: they decide which
  // cells recover and which are skipped, so journals written under different
  // supervision must not merge. Backoff delay and watchdog grace only shape
  // wall-clock timing and stay out (like the shard selector and fault spec).
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "v%d scale=%.3f folds=%zu budget=%.0f pbudget=%.0f "
                "maritime=%zu seed=%llu retries=%d quarantine=%d",
                kJournalFormatVersion, height_scale, folds, train_budget_seconds,
                predict_budget_seconds, maritime_windows,
                static_cast<unsigned long long>(seed),
                supervisor.retry.max_retries, supervisor.quarantine_after);
  return buf;
}

Result<std::unique_ptr<EarlyClassifier>> MakePaperAlgorithm(
    const std::string& algorithm, const std::string& dataset_name,
    size_t series_length) {
  const bool new_dataset =
      dataset_name == "Biological" || dataset_name == "Maritime";
  if (algorithm == "ECEC") {
    EcecOptions options;  // N = 20, alpha = 0.8 (Table 4 defaults)
    // Implementation parameter (not in Table 4): fewer WEASEL window sizes so
    // N x (cv+1) pipeline fits stay inside the single-core budget.
    options.weasel.max_window_count = 12;
    return std::unique_ptr<EarlyClassifier>(
        std::make_unique<EcecClassifier>(options));
  }
  if (algorithm == "ECO-K") {
    EconomyKOptions options;  // k in {1,2,3}, lambda = 100, cost = 0.001
    return std::unique_ptr<EarlyClassifier>(
        std::make_unique<EconomyKClassifier>(options));
  }
  if (algorithm == "ECTS") {
    EctsOptions options;  // support = 0
    return std::unique_ptr<EarlyClassifier>(
        std::make_unique<EctsClassifier>(options));
  }
  if (algorithm == "EDSC") {
    EdscOptions options;  // CHE, k = 3, minLen = 5, maxLen = L/2
    // Tractability scaling (documented in DESIGN.md): candidate subsampling
    // replaces the paper's 24-core / 48-hour budget.
    options.start_stride = std::max<size_t>(1, series_length / 64);
    options.length_stride = std::max<size_t>(1, series_length / 64);
    options.max_candidates = 1500;
    return std::unique_ptr<EarlyClassifier>(
        std::make_unique<EdscClassifier>(options));
  }
  if (algorithm == "TEASER") {
    TeaserOptions options;
    options.num_prefixes = new_dataset ? 10 : 20;  // Table 4
    options.weasel.max_window_count = 12;  // see ECEC note above
    return std::unique_ptr<EarlyClassifier>(
        std::make_unique<TeaserClassifier>(options));
  }
  if (algorithm == "S-MINI") return MakeStrutMiniRocket();
  if (algorithm == "S-MLSTM") {
    StrutOptions options;  // fixed fraction grid per Sec. 6.1
    return MakeStrutMlstm(options);
  }
  if (algorithm == "S-WEASEL") return MakeStrutWeasel(false);
  if (algorithm.find('+') != std::string::npos) {
    // Composed '<base>+<trigger>' spec: resolved through the base/trigger
    // registries, so the cross-product campaign needs no per-pair code here.
    RegisterBuiltinClassifiers();
    auto composed = MakeComposedFromSpec(algorithm);
    if (!composed.ok()) return composed.status();
    return std::unique_ptr<EarlyClassifier>(std::move(*composed));
  }
  std::string known;
  for (const auto& name : PaperAlgorithms()) {
    if (!known.empty()) known += ", ";
    known += name;
  }
  return Status::NotFound(
      "unknown paper algorithm '" + algorithm + "' (known: " + known +
      "; composed '<base>+<trigger>' specs are also accepted, see "
      "etsc_cli --list)");
}

Campaign::Campaign(CampaignConfig config) : config_(std::move(config)) {
  if (config_.shard_count > 1) {
    // Each shard owns a private journal + report; the merge step combines
    // them. Suffixing here (not in FromEnv) covers configs built in code too.
    const std::string suffix = ".shard-" + std::to_string(config_.shard_index) +
                               "-of-" + std::to_string(config_.shard_count);
    config_.cache_path += suffix;
    if (!config_.report_path.empty()) config_.report_path += suffix;
  }
}

namespace {

std::string Hex16(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Order-sensitive FNV-1a combination of the generated datasets' content
/// hashes; part of the journal header so a journal written against different
/// data (e.g. another ETSC_BENCH_SCALE repository build) reads as stale.
uint64_t CombineDataFingerprints(const std::vector<uint64_t>& fingerprints) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const uint64_t fp : fingerprints) {
    for (int i = 0; i < 8; ++i) {
      h ^= (fp >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// Campaign metrics (DESIGN.md sec 9): journalled rows and computed cells.
Counter& JournalAppends() {
  static Counter& c =
      MetricRegistry::Global().counter("campaign.journal_appends");
  return c;
}
Counter& CellsComputed() {
  static Counter& c =
      MetricRegistry::Global().counter("campaign.cells_computed");
  return c;
}

/// The one derivation of a campaign's data and journal identity: generates
/// `config`'s datasets in configuration order (a dataset that fails is
/// logged and left out), hands each generated one to `keep`, and returns the
/// header `# <config fingerprint> data=<16-hex combined dataset fingerprint>`
/// over exactly those datasets. Fails when none can be generated.
Result<std::string> GenerateCampaignData(
    const CampaignConfig& config,
    const std::function<void(BenchmarkDataset&&)>& keep) {
  RepositoryOptions repo;
  repo.seed = config.seed;
  repo.height_scale = config.height_scale;
  repo.maritime_windows = config.maritime_windows;
  std::vector<uint64_t> fingerprints;
  for (const auto& dataset_name : config.datasets) {
    auto benchmark = MakeBenchmarkDataset(dataset_name, repo);
    if (!benchmark.ok()) {
      Logf(LogLevel::kError, "campaign", "dataset %s failed: %s",
           dataset_name.c_str(), benchmark.status().ToString().c_str());
      continue;
    }
    fingerprints.push_back(benchmark->data.Fingerprint());
    keep(std::move(*benchmark));
  }
  if (fingerprints.empty()) {
    return Status::NotFound(
        "campaign: no configured dataset could be generated");
  }
  return "# " + config.Fingerprint() +
         " data=" + Hex16(CombineDataFingerprints(fingerprints));
}

}  // namespace

Result<std::string> JournalHeaderForConfig(const CampaignConfig& config) {
  return GenerateCampaignData(config, [](BenchmarkDataset&&) {});
}

Status Campaign::LoadCache(const std::string& expected_header) {
  journal_stale_ = false;
  std::ifstream in(config_.cache_path);
  ETSC_ASSIGN_OR_RETURN(
      const rowlog::Header header,
      rowlog::ReadHeader(in, config_.cache_path, fabric::kJournalHeaderPrefix,
                         expected_header));
  if (header == rowlog::Header::kMissing) return Status::OK();
  if (header == rowlog::Header::kForeign) {
    // Journal from another configuration (or a header truncated mid-write):
    // its rows must never be mixed with this config's. AppendCache rotates
    // the file aside before the first new row.
    journal_stale_ = true;
    Logf(LogLevel::kWarn, "campaign",
         "cache %s has a different fingerprint; it will be rotated to "
         "%s.stale before new results are journalled",
         config_.cache_path.c_str(), config_.cache_path.c_str());
    return Status::OK();
  }
  size_t skipped = 0;
  size_t duplicates = 0;
  // (algorithm, dataset) -> index into cells_. An interrupted-then-resumed
  // campaign can journal the same cell twice; the LAST row (the freshest
  // result) must win, or Find() would pin lookups to the oldest row forever.
  std::map<std::pair<std::string, std::string>, size_t> index;
  ETSC_RETURN_NOT_OK(
      rowlog::ScanRows(in, &skipped, [&](std::string_view body, size_t) {
        if (body.rfind('@', 0) == 0) return Status::OK();  // control row
        CampaignCell cell;
        if (!fabric::ParseCellRow(body, &cell)) {
          ++skipped;  // malformed: recomputed this run, like a torn row
          return Status::OK();
        }
        const auto [it, inserted] = index.emplace(
            std::make_pair(cell.algorithm, cell.dataset), cells_.size());
        if (inserted) {
          cells_.push_back(std::move(cell));
        } else {
          ++duplicates;
          cells_[it->second] = std::move(cell);
        }
        return Status::OK();
      }));
  if (skipped > 0) {
    Logf(LogLevel::kWarn, "campaign",
         "cache %s: skipped %zu truncated or malformed row(s); the cells will "
         "be recomputed",
         config_.cache_path.c_str(), skipped);
  }
  if (duplicates > 0) {
    Logf(LogLevel::kWarn, "campaign",
         "cache %s: collapsed %zu duplicate row(s) from a resumed campaign; "
         "the latest result for each cell wins",
         config_.cache_path.c_str(), duplicates);
  }
  return Status::OK();
}

void Campaign::AppendCache(const CampaignCell& cell) {
  TraceSpan span("campaign", "journal_append");
  if (MetricsEnabled()) JournalAppends().Add(1);
  Status status;
  if (journal_stale_) {
    // Appending under a foreign header would make these rows silently
    // unloadable forever; move the old journal out of the way first.
    status = rowlog::RotateStale(config_.cache_path);
    journal_stale_ = !status.ok();
  }
  // One cell can take hours; the row is flushed so a later crash costs at
  // most the row being written, which the sentinel check then discards.
  if (status.ok()) {
    status = rowlog::AppendRow(config_.cache_path, journal_header_,
                               fabric::FormatCellRow(cell));
  }
  if (!status.ok()) {
    Logf(LogLevel::kWarn, "campaign",
         "%s/%s was not journalled and will be recomputed next run: %s",
         cell.algorithm.c_str(), cell.dataset.c_str(),
         status.ToString().c_str());
  }
}

const CampaignCell* Campaign::Find(const std::string& algorithm,
                                   const std::string& dataset) const {
  for (const auto& cell : cells_) {
    if (cell.algorithm == algorithm && cell.dataset == dataset) return &cell;
  }
  return nullptr;
}

namespace {

/// Wraps `classifier` in the fault decorator an ETSC_BENCH_FAULT entry
/// requests for `algorithm`; a prototype not named in the spec passes through
/// untouched. Entries are ALGO:KIND with an optional :k ("ECTS:flaky:2");
/// the first matching entry wins. Unknown kinds and a :k that is not a count
/// in [1, 1000000] warn and inject nothing.
std::unique_ptr<EarlyClassifier> ApplyFaultSpec(
    const std::string& spec, const std::string& algorithm,
    std::unique_ptr<EarlyClassifier> classifier) {
  for (const std::string& entry : SplitCommas(spec)) {
    const size_t colon = entry.find(':');
    if (colon == std::string::npos || entry.substr(0, colon) != algorithm) {
      continue;
    }
    std::string kind = entry.substr(colon + 1);
    uint64_t k = 1;
    const size_t param = kind.find(':');
    if (param != std::string::npos) {
      if (!rowlog::ParseInt(std::string_view(kind).substr(param + 1), &k) ||
          k < 1 || k > 1000000) {
        Logf(LogLevel::kWarn, "campaign",
             "ETSC_BENCH_FAULT entry \"%s\": \"%s\" is not a count in [1, "
             "1000000]",
             entry.c_str(), kind.c_str() + param + 1);
        continue;
      }
      kind.resize(param);
    }
    if (kind == "flaky") {
      // Transient: each fold's Fit fails the first k attempts, then succeeds
      // — recoverable with ETSC_RETRY_MAX >= k, scores identical to clean.
      return std::make_unique<FlakyClassifier>(std::move(classifier),
                                               static_cast<int>(k));
    }
    if (kind == "crash") {
      // Deterministic kInternal on every Fit: fails fast (no retry) and
      // feeds the circuit breaker until the algorithm is quarantined.
      FaultOptions fault;
      fault.fit_failure_rate = 1.0;
      return std::make_unique<FaultyClassifier>(std::move(classifier), fault);
    }
    if (kind == "hang-fit" || kind == "hang-predict") {
      // Spins past its budget until the watchdog cancels (needs
      // ETSC_WATCHDOG_GRACE > 0 and a finite budget for that operation).
      HangOptions hang;
      hang.hang_fit = kind == "hang-fit";
      hang.hang_predict = kind == "hang-predict";
      return std::make_unique<HangingClassifier>(std::move(classifier), hang);
    }
    if (kind == "die-at") {
      // Abrupt process exit on this algorithm's k-th campaign cell: the
      // journal is left exactly as a SIGKILL would leave it (possibly with a
      // live lease row), which is what the worker-fabric crash drill needs.
      return std::make_unique<DieAtClassifier>(std::move(classifier),
                                               static_cast<int>(k));
    }
    Logf(LogLevel::kWarn, "campaign",
         "ETSC_BENCH_FAULT entry \"%s\": unknown fault kind \"%s\" (known: "
         "flaky[:k], crash, hang-fit, hang-predict, die-at[:k])",
         entry.c_str(), kind.c_str());
  }
  return classifier;
}

/// The grid both executors walk: dataset-major over the configured
/// algorithms MakePaperAlgorithm knows, each cell gated on its algorithm's
/// previous cell (the lane prerequisite of fabric::GridCell).
struct GridPlan {
  std::vector<fabric::GridCell> cells;
  /// Per cell: the generated dataset it evaluates.
  std::vector<const BenchmarkDataset*> benchmarks;
  /// Per cell: its index in the full configured grid, unknown algorithms
  /// included. The shard partition uses it, so `--shard` assignments do not
  /// depend on which configured names are known.
  std::vector<size_t> configured_index;
};

GridPlan PlanGrid(const std::vector<std::string>& algorithms,
                  const std::vector<BenchmarkDataset>& benchmarks) {
  // One probe prototype per configured name: an unknown algorithm warns
  // once per campaign and never enters the grid — a cell that can never
  // produce a row would wedge the fabric's completion check forever.
  std::vector<bool> known;
  for (const auto& algorithm : algorithms) {
    const auto probe =
        MakePaperAlgorithm(algorithm, benchmarks.front().canonical_profile.name,
                           benchmarks.front().data.MaxLength());
    if (!probe.ok()) {
      Logf(LogLevel::kWarn, "campaign", "%s",
           probe.status().ToString().c_str());
    }
    known.push_back(probe.ok());
  }
  GridPlan plan;
  std::map<std::string, size_t> last_in_lane;
  for (size_t b = 0; b < benchmarks.size(); ++b) {
    for (size_t a = 0; a < algorithms.size(); ++a) {
      if (!known[a]) continue;
      fabric::GridCell cell;
      cell.algorithm = algorithms[a];
      cell.dataset = benchmarks[b].canonical_profile.name;
      const auto [last, first] =
          last_in_lane.emplace(cell.algorithm, plan.cells.size());
      if (!first) {
        cell.prerequisite = last->second;
        last->second = plan.cells.size();
      }
      plan.cells.push_back(std::move(cell));
      plan.benchmarks.push_back(&benchmarks[b]);
      plan.configured_index.push_back(b * algorithms.size() + a);
    }
  }
  return plan;
}

/// Feeds one cell outcome into `breaker`; true when it trips the breaker.
bool RecordOutcome(const std::string& algorithm, const std::string& dataset,
                   bool trained, CircuitBreaker* breaker) {
  if (trained) {
    breaker->RecordSuccess(algorithm);
    return false;
  }
  return breaker->RecordFailure(algorithm, dataset);
}

/// The one breaker replay: feeds `algorithm`'s journalled outcomes into
/// `breaker` in grid (dataset-major) order; quarantine rows are skips, not
/// evidence, and replaying them would double-count. Lanes serialise each
/// algorithm's cells — threads in Run, lane prerequisites across workers —
/// so every replay continues the failure streak a single-process lane would
/// have accumulated and quarantine decisions are bit-identical. Returns
/// whether `algorithm` is quarantined.
bool ReplayLane(const std::vector<fabric::GridCell>& grid,
                const std::vector<fabric::CellStatus>& journalled,
                const std::string& algorithm, CircuitBreaker* breaker) {
  for (size_t i = 0; i < grid.size(); ++i) {
    if (grid[i].algorithm != algorithm || !journalled[i].terminal ||
        journalled[i].quarantined_row) {
      continue;
    }
    RecordOutcome(algorithm, grid[i].dataset, journalled[i].trained, breaker);
  }
  return breaker->IsQuarantined(algorithm);
}

/// The row of a cell the breaker skipped: never attempted, an explicit
/// first-class row so reports and resumed campaigns can tell "skipped by
/// the breaker" from "tried and failed". Logs the skip.
CampaignCell QuarantinedCell(const fabric::GridCell& at) {
  CampaignCell cell;
  cell.algorithm = at.algorithm;
  cell.dataset = at.dataset;
  cell.quarantined = true;
  cell.failure = Status::SkippedQuarantine(
                     at.algorithm +
                     " quarantined after repeated failures; cell not attempted")
                     .ToString();
  Logf(LogLevel::kWarn, "campaign", "  %s on %s: %s", at.algorithm.c_str(),
       at.dataset.c_str(), cell.failure.c_str());
  return cell;
}

/// The classifier a cell evaluates: the paper algorithm for its dataset,
/// wrapped in any fault the config's fault spec asks for.
Result<std::unique_ptr<EarlyClassifier>> CellPrototype(
    const CampaignConfig& config, const fabric::GridCell& at,
    const BenchmarkDataset& benchmark) {
  ETSC_ASSIGN_OR_RETURN(
      std::unique_ptr<EarlyClassifier> prototype,
      MakePaperAlgorithm(at.algorithm, at.dataset, benchmark.data.MaxLength()));
  return ApplyFaultSpec(config.fault_spec, at.algorithm, std::move(prototype));
}

/// The one cell evaluation: cross-validates `prototype` on `benchmark` with
/// the campaign's evaluation options and returns the cell's row — scores,
/// the Fit retries the supervisor spent across folds, the first failure (a
/// Fit error on an untrained cell, or a degraded prediction such as a
/// predict deadline overrun on a trained one) and timings. `cpu_seconds`
/// receives the CPU time the folds spent.
CampaignCell EvaluateCell(const CampaignConfig& config,
                          const std::shared_ptr<const ModelCache>& model_cache,
                          const fabric::GridCell& at,
                          const BenchmarkDataset& benchmark,
                          const EarlyClassifier& prototype,
                          double* cpu_seconds) {
  Logf(LogLevel::kInfo, "campaign", "%s on %s (%zu instances)...",
       at.algorithm.c_str(), at.dataset.c_str(), benchmark.data.size());
  EvaluationOptions options;
  options.num_folds = config.folds;
  options.seed = config.seed;
  options.train_budget_seconds = config.train_budget_seconds;
  options.predict_budget_seconds = config.predict_budget_seconds;
  options.model_cache = model_cache;
  options.retry = config.supervisor.retry;
  options.watchdog_grace = config.supervisor.watchdog_grace;
  const EvaluationResult result =
      CrossValidate(benchmark.data, prototype, options);

  CampaignCell cell;
  cell.algorithm = at.algorithm;
  cell.dataset = at.dataset;
  cell.trained = result.trained();
  for (const auto& fold : result.folds) {
    cell.retries += std::max(0, fold.fit_attempts - 1);
    if (cell.failure.empty() && !fold.failure.empty()) {
      cell.failure = fold.failure;
    }
  }
  const EvalScores scores = result.MeanScores();
  cell.accuracy = scores.accuracy;
  cell.f1 = scores.f1;
  cell.earliness = scores.earliness;
  cell.harmonic_mean = scores.harmonic_mean;
  cell.train_seconds = result.MeanTrainSeconds();
  cell.test_seconds_per_instance = result.MeanTestSecondsPerInstance();
  *cpu_seconds = result.CpuSeconds();
  if (MetricsEnabled()) CellsComputed().Add(1);
  Logf(LogLevel::kInfo, "campaign", "  %s on %s: %s", at.algorithm.c_str(),
       at.dataset.c_str(),
       cell.trained ? scores.ToString().c_str()
                    : ("DNF: " + cell.failure).c_str());
  return cell;
}

}  // namespace

Status Campaign::GenerateDatasets(std::vector<BenchmarkDataset>* benchmarks) {
  // Serial: generation draws from seeded RNGs, so it must not race or depend
  // on scheduling; cell tasks then capture const references into the vector
  // (satisfying the immutable-inputs contract of core/parallel.h). Runs
  // BEFORE any cache read: the journal header embeds the combined dataset
  // fingerprint, so the expected header is only known once the data exists.
  profiles_.clear();
  benchmarks->reserve(benchmarks->size() + config_.datasets.size());
  auto header =
      GenerateCampaignData(config_, [&](BenchmarkDataset&& benchmark) {
        profiles_.push_back(benchmark.canonical_profile);
        benchmarks->push_back(std::move(benchmark));
      });
  if (!header.ok()) return header.status();
  journal_header_ = std::move(*header);
  return Status::OK();
}

Status Campaign::Run() {
  TraceSpan run_span("campaign", "campaign_run");
  RunStats stats;
  Stopwatch total;
  Stopwatch phase;

  // Phase 1 (serial): generate every dataset once, in configuration order.
  std::vector<BenchmarkDataset> benchmarks;
  const Status generated = GenerateDatasets(&benchmarks);
  stats.generate_seconds = phase.Seconds();
  if (!generated.ok()) {
    Logf(LogLevel::kError, "campaign", "%s", generated.ToString().c_str());
    return generated;
  }

  phase.Restart();
  ETSC_RETURN_NOT_OK(LoadCache(journal_header_));
  stats.load_cache_seconds = phase.Seconds();
  stats.cells_loaded = cells_.size();

  // Phase 2 (serial): claim this shard's uncached grid cells, dataset-major
  // like the reports, as one lane per algorithm (stable grouping keeps each
  // lane in dataset order, which the breaker determinism argument needs).
  // The shard partition runs over the FULL configured grid, cached or not,
  // so every shard agrees on the assignment whatever each has journalled.
  phase.Restart();
  struct CellJob {
    size_t index = 0;  // into plan.cells
    std::unique_ptr<EarlyClassifier> prototype;
    CampaignCell cell;
    double cpu_seconds = 0.0;
  };
  const GridPlan plan = PlanGrid(config_.algorithms, benchmarks);
  std::vector<fabric::CellStatus> journalled(plan.cells.size());
  std::vector<CellJob> jobs;
  std::vector<std::vector<size_t>> lanes;
  std::map<std::string, size_t> lane_of;
  for (size_t i = 0; i < plan.cells.size(); ++i) {
    const fabric::GridCell& at = plan.cells[i];
    if (const CampaignCell* cached = Find(at.algorithm, at.dataset)) {
      journalled[i].terminal = true;
      journalled[i].trained = cached->trained;
      journalled[i].quarantined_row = cached->quarantined;
      continue;
    }
    if (config_.report_only) continue;  // reporting a running campaign
    if (config_.shard_count > 1 &&
        plan.configured_index[i] % config_.shard_count != config_.shard_index) {
      continue;
    }
    auto prototype = CellPrototype(config_, at, *plan.benchmarks[i]);
    if (!prototype.ok()) {
      Logf(LogLevel::kWarn, "campaign", "%s",
           prototype.status().ToString().c_str());
      continue;
    }
    const auto [lane, inserted] = lane_of.emplace(at.algorithm, lanes.size());
    if (inserted) lanes.emplace_back();
    lanes[lane->second].push_back(jobs.size());
    jobs.push_back({i, std::move(*prototype), {}, 0.0});
  }
  stats.plan_seconds = phase.Seconds();
  stats.cells_computed = jobs.size();

  if (jobs.empty()) {
    // Nothing to compute (fully cached or report-only): the report is still
    // written so downstream tooling always finds a fresh one after Run().
    stats.total_seconds = total.Seconds();
    WriteReport(stats);
    return Status::OK();
  }

  // Phase 3 (parallel): the lanes run concurrently, each cell in turn. Each
  // cell is seeded from config_.seed alone (CrossValidate splits per-fold
  // seeds before its own dispatch), so results are bit-identical to a serial
  // run; only the log lines and journal row order vary with scheduling.
  // An algorithm's failure streak evolves in dataset order within its own
  // lane, so which cells are quarantined cannot depend on how threads
  // interleave across algorithms.
  phase.Restart();
  // Resolved once and shared by every cell: with ETSC_MODEL_CACHE set, folds
  // whose fitted model is already on disk skip Fit entirely (counted as
  // eval.fits_skipped), which is what makes re-running shards cheap.
  const std::shared_ptr<const ModelCache> model_cache = ModelCache::FromEnv();
  CircuitBreaker breaker(config_.supervisor.quarantine_after);
  TaskGroup group;
  for (const auto& lane : lanes) {
    group.Run([this, &plan, &journalled, &jobs, &model_cache, &breaker,
               &lane]() -> Status {
      ReplayLane(plan.cells, journalled,
                 plan.cells[jobs[lane.front()].index].algorithm, &breaker);
      for (const size_t j : lane) {
        CellJob& job = jobs[j];
        const fabric::GridCell& at = plan.cells[job.index];
        if (breaker.IsQuarantined(at.algorithm)) {
          job.cell = QuarantinedCell(at);
          std::lock_guard<std::mutex> lock(journal_mu_);
          AppendCache(job.cell);
          continue;
        }
        TraceSpan cell_span("campaign", [&] {
          return "cell:" + at.algorithm + "/" + at.dataset;
        });
        job.cell = EvaluateCell(config_, model_cache, at,
                                *plan.benchmarks[job.index], *job.prototype,
                                &job.cpu_seconds);
        RecordOutcome(at.algorithm, at.dataset, job.cell.trained, &breaker);
        // The journal is shared by all lanes; the lock keeps each flushed
        // row whole so a reload never sees interleaved fragments.
        std::lock_guard<std::mutex> lock(journal_mu_);
        AppendCache(job.cell);
      }
      return Status::OK();
    });
  }
  const Status status = group.Wait();
  if (!status.ok()) {
    Logf(LogLevel::kError, "campaign", "cell task failed: %s",
         status.ToString().c_str());
  }
  stats.compute_seconds = phase.Seconds();

  // Phase 4 (serial): publish results in work-list order, so cells() and the
  // reports are independent of which cell finished first.
  for (auto& job : jobs) {
    stats.cpu_seconds += job.cpu_seconds;
    cells_.push_back(std::move(job.cell));
  }
  stats.total_seconds = total.Seconds();
  Logf(LogLevel::kInfo, "campaign",
       "%zu cell(s) in %.1fs wall, %.1fs cpu-sum (speedup %.2fx, %zu "
       "thread(s))",
       jobs.size(), stats.compute_seconds, stats.cpu_seconds,
       stats.compute_seconds > 0 ? stats.cpu_seconds / stats.compute_seconds
                                 : 1.0,
       MaxParallelism());
  WriteReport(stats);
  return Status::OK();
}

Status Campaign::RunWorker(const std::string& owner,
                           const WorkerDrillHooks* drill) {
  trace::SetProcessLabel("etsc-worker:" + owner);
  TraceSpan run_span("campaign", "worker_run");

  std::vector<BenchmarkDataset> benchmarks;
  ETSC_RETURN_NOT_OK(GenerateDatasets(&benchmarks));
  // The grid every worker must agree on: Run's plan, claimed through the
  // journal's leases instead of up-front lanes.
  const GridPlan plan = PlanGrid(config_.algorithms, benchmarks);
  if (plan.cells.empty()) {
    return Status::NotFound("worker: no known algorithm configured");
  }
  fabric::WorkerJournal journal(config_.cache_path, journal_header_,
                                plan.cells, owner,
                                fabric::LeaseOptions::FromEnv());
  ETSC_RETURN_NOT_OK(journal.EnsureHeader());
  const std::shared_ptr<const ModelCache> model_cache = ModelCache::FromEnv();
  size_t computed = 0;

  for (;;) {
    ETSC_ASSIGN_OR_RETURN(const fabric::WorkerJournal::Acquired acquired,
                          journal.Acquire());
    if (acquired.all_terminal) break;
    if (acquired.index == fabric::kNoCell) {
      // Everything acquirable is leased by live workers (or gated on their
      // lanes); sleep until the soonest expiry could free a cell.
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          std::max(10.0, acquired.retry_after_ms)));
      continue;
    }
    const fabric::GridCell& at = plan.cells[acquired.index];
    if (drill != nullptr && drill->on_cell &&
        !drill->on_cell(at.algorithm, at.dataset)) {
      // Crash drill: walk away holding the lease, like a SIGKILLed worker.
      Logf(LogLevel::kWarn, "campaign",
           "%s: drill hook abandoned the run holding the lease on %s/%s",
           owner.c_str(), at.algorithm.c_str(), at.dataset.c_str());
      return Status::OK();
    }

    // Quarantine decision: a broadcast row published by any worker, or the
    // breaker replay over this lane's journalled outcomes.
    CircuitBreaker breaker(config_.supervisor.quarantine_after);
    CampaignCell cell;
    if (acquired.quarantined_algorithms.count(at.algorithm) > 0 ||
        ReplayLane(plan.cells, acquired.statuses, at.algorithm, &breaker)) {
      cell = QuarantinedCell(at);
    } else if (auto prototype =
                   CellPrototype(config_, at, *plan.benchmarks[acquired.index]);
               !prototype.ok()) {
      // The plan probed the name, so only exotic failures land here; a
      // failed row still terminates the cell so the grid completes.
      cell.algorithm = at.algorithm;
      cell.dataset = at.dataset;
      cell.failure = prototype.status().ToString();
    } else {
      TraceSpan cell_span("campaign", [&] {
        return "cell:" + at.algorithm + "/" + at.dataset;
      });
      bool lease_lost = false;
      {
        // Heartbeats renew the lease while the cell computes — a slow cell
        // is not a dead worker. Scoped so the keeper is joined before
        // Complete.
        fabric::LeaseKeeper keeper(&journal, acquired.index);
        double cpu_seconds = 0.0;
        cell = EvaluateCell(config_, model_cache, at,
                            *plan.benchmarks[acquired.index], **prototype,
                            &cpu_seconds);
        lease_lost = keeper.lease_lost();
      }
      if (lease_lost) {
        // Stolen mid-compute (our heartbeats lapsed past the TTL): the
        // thief's re-run is the row of record; journalling ours too would be
        // a duplicate at best and a fork at worst.
        Logf(LogLevel::kWarn, "campaign",
             "%s: lease on %s/%s was stolen mid-compute; result discarded",
             owner.c_str(), at.algorithm.c_str(), at.dataset.c_str());
        continue;
      }
      // The worker whose fresh failure trips the breaker broadcasts the
      // quarantine so the others stop without re-deriving it from rows.
      if (RecordOutcome(at.algorithm, at.dataset, cell.trained, &breaker)) {
        ETSC_RETURN_NOT_OK(journal.PublishQuarantine(at.algorithm));
      }
      ++computed;
    }
    if (MetricsEnabled()) JournalAppends().Add(1);
    ETSC_RETURN_NOT_OK(
        journal.Complete(acquired.index, fabric::FormatCellRow(cell)));
  }
  Logf(LogLevel::kInfo, "campaign",
       "%s: campaign complete — every cell terminal (%zu computed here)",
       owner.c_str(), computed);
  return Status::OK();
}

Result<MergeSummary> MergeShardJournals(const std::string& out_path,
                                        const std::vector<std::string>& inputs,
                                        const CampaignConfig& config,
                                        const std::string& expected_header) {
  MergeSummary summary;
  std::map<std::pair<std::string, std::string>, std::string> rows;
  std::vector<std::pair<std::string, std::string>> order;
  for (const auto& path : inputs) {
    std::ifstream in(path);
    if (!in) return Status::IOError("cannot read shard journal " + path);
    std::string line;
    ETSC_ASSIGN_OR_RETURN(
        const rowlog::Header header,
        rowlog::ReadHeader(in, path, fabric::kJournalHeaderPrefix,
                           expected_header, &line));
    if (header == rowlog::Header::kMissing) {
      return Status::DataLoss(path + ": missing journal header line");
    }
    if (header == rowlog::Header::kForeign) {
      // Refuse rather than guess: shards from different configs or different
      // generated data must never be blended into one report. Name both
      // fingerprints so the operator can see exactly what disagrees.
      return Status::FailedPrecondition(
          path + " was written under a different campaign identity — "
          "refusing to interleave mismatched shards:\n  journal:  " + line +
          "\n  expected: " + expected_header);
    }
    size_t torn = 0;  // dropped like LoadCache drops them
    ETSC_RETURN_NOT_OK(
        rowlog::ScanRows(in, &torn, [&](std::string_view body, size_t) {
          CampaignCell cell;
          if (body.rfind('@', 0) == 0) {
            ++summary.control_rows;  // lease/quarantine rows end with the merge
          } else if (fabric::ParseCellRow(body, &cell)) {
            auto key = std::make_pair(cell.algorithm, cell.dataset);
            const auto [it, inserted] =
                rows.emplace(key, rowlog::Seal(std::string(body)));
            if (inserted) {
              order.push_back(std::move(key));
            } else {
              it->second = rowlog::Seal(std::string(body));  // freshest wins
            }
          }
          return Status::OK();
        }));
  }
  summary.rows = rows.size();

  std::remove(out_path.c_str());
  rowlog::Appender out;
  ETSC_RETURN_NOT_OK(out.Open(out_path, expected_header));
  std::map<std::pair<std::string, std::string>, bool> written;
  for (const auto& dataset : config.datasets) {
    for (const auto& algorithm : config.algorithms) {
      ++summary.grid_cells;
      const auto it = rows.find({algorithm, dataset});
      if (it == rows.end()) continue;
      ++summary.terminal_cells;
      ETSC_RETURN_NOT_OK(out.Append(it->second));
      written[it->first] = true;
    }
  }
  for (const auto& key : order) {
    if (!written.count(key)) ETSC_RETURN_NOT_OK(out.Append(rows[key]));
  }
  summary.complete =
      summary.grid_cells > 0 && summary.terminal_cells == summary.grid_cells;
  return summary;
}

std::string Campaign::ReportPath() const {
  return config_.report_path.empty() ? config_.cache_path + ".report.json"
                                     : config_.report_path;
}

void Campaign::WriteReport(const RunStats& stats) const {
  json::Writer w;
  w.BeginObject();
  w.Field("fingerprint", config_.Fingerprint());
  w.Key("config").BeginObject();
  w.Field("height_scale", config_.height_scale);
  w.Field("folds", config_.folds);
  w.Field("train_budget_seconds", config_.train_budget_seconds);
  // Infinity (the unlimited default) serialises as null per json::Writer.
  w.Field("predict_budget_seconds", config_.predict_budget_seconds);
  w.Field("maritime_windows", config_.maritime_windows);
  w.Field("seed", config_.seed);
  w.Field("cost_alpha", config_.cost_alpha);
  w.Key("algorithms").BeginArray();
  for (const auto& algorithm : config_.algorithms) w.String(algorithm);
  w.EndArray();
  w.Key("datasets").BeginArray();
  for (const auto& dataset : config_.datasets) w.String(dataset);
  w.EndArray();
  w.Field("cache_path", config_.cache_path);
  w.Field("report_only", config_.report_only);
  // The active kernel path (ETSC_SIMD x build ISA). Volatile for report
  // diffing: the SIMD equivalence gate compares an ETSC_SIMD=0 run against
  // an ETSC_SIMD=1 run, so --report-diff strips this block.
  w.Key("simd").BeginObject();
  w.Field("enabled", simd::Enabled());
  w.Field("isa_compiled", std::string(simd::CompiledIsa()));
  w.Field("isa_active", std::string(simd::ActiveIsa()));
  w.EndObject();
  w.Key("supervisor").BeginObject();
  w.Field("max_retries", config_.supervisor.retry.max_retries);
  w.Field("base_backoff_ms", config_.supervisor.retry.base_backoff_ms);
  w.Field("quarantine_after", config_.supervisor.quarantine_after);
  w.Field("watchdog_grace", config_.supervisor.watchdog_grace);
  w.EndObject();
  if (!config_.fault_spec.empty()) w.Field("fault_spec", config_.fault_spec);
  w.EndObject();
  w.Key("phases").BeginObject();
  w.Field("load_cache_seconds", stats.load_cache_seconds);
  w.Field("generate_seconds", stats.generate_seconds);
  w.Field("plan_seconds", stats.plan_seconds);
  w.Field("compute_seconds", stats.compute_seconds);
  w.Field("total_seconds", stats.total_seconds);
  w.EndObject();
  w.Field("threads", MaxParallelism());
  w.Field("cpu_seconds", stats.cpu_seconds);
  w.Field("cells_loaded", stats.cells_loaded);
  w.Field("cells_computed", stats.cells_computed);
  size_t failed = 0;
  size_t quarantined = 0;
  size_t retries = 0;
  for (const auto& cell : cells_) {
    if (!cell.trained) ++failed;
    if (cell.quarantined) ++quarantined;
    retries += static_cast<size_t>(std::max(0, cell.retries));
  }
  w.Field("cells_failed", failed);
  w.Field("cells_quarantined", quarantined);
  w.Field("fit_retries", retries);
  w.Key("cells").BeginArray();
  for (const auto& cell : cells_) {
    w.BeginObject();
    w.Field("algorithm", cell.algorithm);
    w.Field("dataset", cell.dataset);
    w.Field("trained", cell.trained);
    if (cell.retries > 0) w.Field("retries", cell.retries);
    if (cell.quarantined) w.Field("quarantined", cell.quarantined);
    if (!cell.failure.empty()) w.Field("failure", cell.failure);
    w.Field("accuracy", cell.accuracy);
    w.Field("f1", cell.f1);
    w.Field("earliness", cell.earliness);
    w.Field("harmonic_mean", cell.harmonic_mean);
    // Alpha-weighted cost (core/metrics.h CostScore): lower is better,
    // derived from the journalled accuracy/earliness under config cost_alpha.
    w.Field("cost", CostScore(cell.accuracy, cell.earliness, config_.cost_alpha));
    w.Field("train_seconds", cell.train_seconds);
    w.Field("test_seconds_per_instance", cell.test_seconds_per_instance);
    w.EndObject();
  }
  w.EndArray();
  // Snapshot of every process-wide metric at the end of the run: kernel and
  // early-abandon counters, pool queue/latency, deadline slack, degraded
  // predictions, journal appends.
  w.Key("metrics").RawValue(MetricRegistry::Global().ToJson());
  w.EndObject();

  const std::string path = ReportPath();
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    Logf(LogLevel::kWarn, "campaign", "cannot write report %s", path.c_str());
    return;
  }
  out << w.str() << "\n";
  Logf(LogLevel::kInfo, "campaign", "report written to %s", path.c_str());
}

double Campaign::CategoryMean(const std::string& algorithm,
                              DatasetCategory category,
                              double (*extract)(const CampaignCell&)) const {
  double sum = 0.0;
  size_t count = 0;
  for (const auto& profile : profiles_) {
    if (!profile.IsIn(category)) continue;
    const CampaignCell* cell = Find(algorithm, profile.name);
    if (cell == nullptr || !cell->trained) continue;
    const double value = extract(*cell);
    // Empty-fold cells carry explicit NaN scores (core/metrics.cc); they
    // must not turn the whole category mean into NaN.
    if (std::isnan(value)) continue;
    sum += value;
    ++count;
  }
  return count == 0 ? std::nan("") : sum / static_cast<double>(count);
}

double CellAccuracy(const CampaignCell& cell) { return cell.accuracy; }
double CellF1(const CampaignCell& cell) { return cell.f1; }
double CellEarliness(const CampaignCell& cell) { return cell.earliness; }
double CellHarmonicMean(const CampaignCell& cell) { return cell.harmonic_mean; }
double CellTrainMinutes(const CampaignCell& cell) {
  return cell.train_seconds / 60.0;
}

void PrintCategoryTable(const Campaign& campaign, const std::string& title,
                        double (*extract)(const CampaignCell&), int digits) {
  std::printf("\n== %s ==\n", title.c_str());
  std::printf("(config: %s)\n", campaign.config().Fingerprint().c_str());
  std::printf("%-10s", "algorithm");
  for (DatasetCategory category : AllDatasetCategories()) {
    std::printf(" %12s", DatasetCategoryName(category).c_str());
  }
  std::printf("\n");
  for (const auto& algorithm : campaign.config().algorithms) {
    std::printf("%-10s", algorithm.c_str());
    for (DatasetCategory category : AllDatasetCategories()) {
      const double value = campaign.CategoryMean(algorithm, category, extract);
      if (std::isnan(value)) {
        std::printf(" %12s", "--");
      } else {
        std::printf(" %12.*f", digits, value);
      }
    }
    std::printf("\n");
  }
}

}  // namespace etsc::bench
