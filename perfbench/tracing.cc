#include "tracing.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

#include "core/composed.h"
#include "core/json.h"
#include "core/trace.h"
#include "core/trigger.h"

namespace perfbench {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

thread_local uint64_t t_decide_calls = 0;

/// Forwards every FullClassifier call to `inner`, timing fits (as bank or
/// calibration fits, by role) and bank predictions.
class TracedBase final : public etsc::FullClassifier {
 public:
  TracedBase(std::unique_ptr<etsc::FullClassifier> inner,
             std::shared_ptr<const std::string> id, BaseRole role)
      : inner_(std::move(inner)), id_(std::move(id)), role_(role) {}

  etsc::Status Fit(const etsc::Dataset& train) override {
    const bool bank = role_ == BaseRole::kBank;
    etsc::TraceSpan span("bank", [&] {
      return std::string(bank ? "bank.fit#" : "calib.fit#") + *id_;
    });
    const uint64_t start = NowNs();
    etsc::Status status = inner_->Fit(train);
    (bank ? Counters().bank_fit : Counters().calib_fit).Add(NowNs() - start);
    return status;
  }

  etsc::Result<int> Predict(const etsc::TimeSeries& series) const override {
    if (role_ != BaseRole::kBank) return inner_->Predict(series);
    const uint64_t start = NowNs();
    etsc::Result<int> out = inner_->Predict(series);
    Counters().bank_predict.Add(NowNs() - start);
    return out;
  }

  etsc::Result<std::vector<double>> PredictProba(
      const etsc::TimeSeries& series) const override {
    if (role_ != BaseRole::kBank) return inner_->PredictProba(series);
    const uint64_t start = NowNs();
    etsc::Result<std::vector<double>> out = inner_->PredictProba(series);
    Counters().bank_predict.Add(NowNs() - start);
    return out;
  }

  const std::vector<int>& class_labels() const override {
    return inner_->class_labels();
  }
  std::string name() const override { return inner_->name(); }
  bool SupportsMultivariate() const override {
    return inner_->SupportsMultivariate();
  }
  std::unique_ptr<etsc::FullClassifier> CloneUntrained() const override {
    return std::make_unique<TracedBase>(inner_->CloneUntrained(), id_, role_);
  }
  std::string config_fingerprint() const override {
    return inner_->config_fingerprint();
  }
  etsc::Status SaveState(etsc::Serializer& out) const override {
    return inner_->SaveState(out);
  }
  etsc::Status LoadState(etsc::Deserializer& in) override {
    return inner_->LoadState(in);
  }

  /// An unfitted copy that reports its fits as calibration fits.
  std::unique_ptr<TracedBase> CalibrationPrototype() const {
    return std::make_unique<TracedBase>(inner_->CloneUntrained(), id_,
                                        BaseRole::kCalibration);
  }

 private:
  std::unique_ptr<etsc::FullClassifier> inner_;
  std::shared_ptr<const std::string> id_;
  BaseRole role_;
};

/// Forwards every Trigger call to `inner`, timing Fit and Decide. Fit hands
/// the inner trigger a calibration-role copy of the base prototype, so base
/// fits the trigger makes for its calibration folds are told apart from the
/// bank's without relying on which thread runs them.
class TracedTrigger final : public etsc::Trigger {
 public:
  TracedTrigger(std::unique_ptr<etsc::Trigger> inner,
                std::shared_ptr<const std::string> id)
      : inner_(std::move(inner)), id_(std::move(id)) {}

  std::string name() const override { return inner_->name(); }
  std::string config_fingerprint() const override {
    return inner_->config_fingerprint();
  }
  bool needs_posteriors() const override { return inner_->needs_posteriors(); }
  bool self_contained() const override { return inner_->self_contained(); }
  bool SupportsMultivariate() const override {
    return inner_->SupportsMultivariate();
  }
  etsc::ComposedOptions DefaultComposedOptions() const override {
    return inner_->DefaultComposedOptions();
  }
  etsc::Status PlanCheckpoints(const etsc::Dataset& train,
                               const etsc::FullClassifier* base,
                               const etsc::Deadline& deadline,
                               std::vector<size_t>* checkpoints) override {
    return inner_->PlanCheckpoints(train, base, deadline, checkpoints);
  }

  etsc::Status Fit(const etsc::TriggerFitContext& ctx) override {
    etsc::TraceSpan span("trigger", [&] { return "trigger.fit#" + *id_; });
    etsc::TriggerFitContext forwarded = ctx;
    std::unique_ptr<TracedBase> calibration;
    if (const auto* traced = dynamic_cast<const TracedBase*>(ctx.base)) {
      calibration = traced->CalibrationPrototype();
      forwarded.base = calibration.get();
    }
    const uint64_t start = NowNs();
    etsc::Status status = inner_->Fit(forwarded);
    Counters().trigger_fit.Add(NowNs() - start);
    return status;
  }

  std::unique_ptr<etsc::TriggerState> NewState() const override {
    return inner_->NewState();
  }

  etsc::Result<etsc::TriggerDecision> Decide(
      const etsc::TriggerEvidence& evidence,
      etsc::TriggerState* state) const override {
    const uint64_t start = NowNs();
    etsc::Result<etsc::TriggerDecision> out = inner_->Decide(evidence, state);
    Counters().trigger_decide.Add(NowNs() - start);
    ++t_decide_calls;
    return out;
  }

  etsc::Result<std::optional<etsc::EarlyPrediction>> Finalize(
      const etsc::TimeSeries& series, etsc::TriggerState* state) const override {
    return inner_->Finalize(series, state);
  }
  std::unique_ptr<etsc::Trigger> CloneUnfitted() const override {
    return std::make_unique<TracedTrigger>(inner_->CloneUnfitted(), id_);
  }
  etsc::Status SaveState(etsc::Serializer& out) const override {
    return inner_->SaveState(out);
  }
  etsc::Status LoadState(etsc::Deserializer& in) override {
    return inner_->LoadState(in);
  }

 private:
  std::unique_ptr<etsc::Trigger> inner_;
  std::shared_ptr<const std::string> id_;
};

}  // namespace

LayerCounters& Counters() {
  static LayerCounters counters;
  return counters;
}

namespace {
CallTotals Load(const CallTimer& timer) {
  return {timer.ns.load(), timer.calls.load()};
}
}  // namespace

LayerTotals LayerTotals::Now() {
  const LayerCounters& c = Counters();
  return {Load(c.bank_fit), Load(c.calib_fit), Load(c.bank_predict),
          Load(c.trigger_fit), Load(c.trigger_decide)};
}

LayerTotals LayerTotals::operator-(const LayerTotals& earlier) const {
  return {bank_fit - earlier.bank_fit, calib_fit - earlier.calib_fit,
          bank_predict - earlier.bank_predict,
          trigger_fit - earlier.trigger_fit,
          trigger_decide - earlier.trigger_decide};
}

uint64_t ThreadDecideCalls() { return t_decide_calls; }

etsc::Result<std::unique_ptr<etsc::EarlyClassifier>> ComposedTwin(
    const etsc::EarlyClassifier& model, const std::string& id, bool decorate) {
  const auto* composed =
      dynamic_cast<const etsc::ComposedEarlyClassifier*>(&model);
  if (composed == nullptr) {
    return etsc::Status::InvalidArgument(
        model.name() + " is not a ComposedEarlyClassifier; it has no public "
                       "base/trigger parts to decorate");
  }
  std::unique_ptr<etsc::FullClassifier> base;
  if (composed->base_classifier() != nullptr) {
    base = composed->base_classifier()->CloneUntrained();
  }
  std::unique_ptr<etsc::Trigger> trigger = composed->trigger().CloneUnfitted();
  if (decorate) {
    auto shared_id = std::make_shared<const std::string>(id);
    if (base != nullptr) {
      base = std::make_unique<TracedBase>(std::move(base), shared_id,
                                          BaseRole::kBank);
    }
    trigger = std::make_unique<TracedTrigger>(std::move(trigger), shared_id);
  }
  return std::unique_ptr<etsc::EarlyClassifier>(
      std::make_unique<etsc::ComposedEarlyClassifier>(
          composed->name(), std::move(base), std::move(trigger),
          composed->composed_options()));
}

etsc::Result<std::vector<SpanRecord>> ParseSpans(
    const std::string& chrome_json) {
  ETSC_ASSIGN_OR_RETURN(etsc::json::Value doc, etsc::json::Parse(chrome_json));
  const etsc::json::Value* events = doc.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return etsc::Status::DataLoss("trace has no traceEvents array");
  }
  std::vector<SpanRecord> spans;
  std::vector<std::pair<uint64_t, uint64_t>> lanes;  // (pid, tid) per span
  for (const etsc::json::Value& event : events->array) {
    const etsc::json::Value* ph = event.Find("ph");
    if (ph == nullptr || ph->AsString() != "X") continue;
    SpanRecord span;
    span.name = event.Find("name")->AsString();
    span.category = event.Find("cat")->AsString();
    span.tid = static_cast<uint64_t>(event.Find("tid")->AsNumber());
    span.start_us = event.Find("ts")->AsNumber();
    span.dur_us = event.Find("dur")->AsNumber();
    span.self_us = span.dur_us;
    lanes.emplace_back(static_cast<uint64_t>(event.Find("pid")->AsNumber()),
                       span.tid);
    spans.push_back(std::move(span));
  }
  std::vector<size_t> order(spans.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Per thread, by start; at equal starts the longer span is the parent.
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (lanes[a] != lanes[b]) return lanes[a] < lanes[b];
    if (spans[a].start_us != spans[b].start_us) {
      return spans[a].start_us < spans[b].start_us;
    }
    return spans[a].dur_us > spans[b].dur_us;
  });
  std::vector<size_t> stack;
  for (size_t k = 0; k < order.size(); ++k) {
    const size_t i = order[k];
    if (k > 0 && lanes[order[k - 1]] != lanes[i]) stack.clear();
    const double end = spans[i].start_us + spans[i].dur_us;
    while (!stack.empty()) {
      const SpanRecord& top = spans[stack.back()];
      if (top.start_us + top.dur_us >= end) break;
      stack.pop_back();
    }
    if (!stack.empty()) spans[stack.back()].self_us -= spans[i].dur_us;
    stack.push_back(i);
  }
  return spans;
}

std::string SpanBase(const std::string& name) {
  const size_t hash = name.find('#');
  return hash == std::string::npos ? name : name.substr(0, hash);
}

std::vector<const SpanRecord*> SpansWithin(const std::vector<SpanRecord>& spans,
                                           const std::string& stage) {
  double start = 0.0, end = 0.0;
  for (const SpanRecord& span : spans) {
    if (span.name == stage) {
      start = span.start_us;
      end = span.start_us + span.dur_us;
    }
  }
  std::vector<const SpanRecord*> out;
  for (const SpanRecord& span : spans) {
    if (span.start_us >= start && span.start_us + span.dur_us <= end) {
      out.push_back(&span);
    }
  }
  return out;
}

double SelfMicros(const std::vector<const SpanRecord*>& spans,
                  const std::string& base) {
  double total = 0.0;
  for (const SpanRecord* span : spans) {
    if (SpanBase(span->name) == base) total += span->self_us;
  }
  return total;
}

double GridBusyMicros(const std::vector<const SpanRecord*>& spans) {
  const auto is_fold = [](const SpanRecord* span) {
    return span->name.rfind("fold:", 0) == 0;
  };
  std::map<uint64_t, std::vector<std::pair<double, double>>> busy;
  for (const SpanRecord* span : spans) {
    bool work = is_fold(span) || span->name == "journal_append";
    if (span->name == "pool_task") {
      work = std::none_of(spans.begin(), spans.end(), [&](const SpanRecord* f) {
        return is_fold(f) && f->tid == span->tid && f->start_us >= span->start_us &&
               f->start_us + f->dur_us <= span->start_us + span->dur_us;
      });
    }
    if (work) {
      busy[span->tid].emplace_back(span->start_us, span->start_us + span->dur_us);
    }
  }
  double total = 0.0;
  for (auto& [tid, intervals] : busy) {
    std::sort(intervals.begin(), intervals.end());
    double cur_start = intervals.front().first;
    double cur_end = intervals.front().second;
    for (const auto& [start, end] : intervals) {
      if (start > cur_end) {
        total += cur_end - cur_start;
        cur_start = start;
      }
      cur_end = std::max(cur_end, end);
    }
    total += cur_end - cur_start;
  }
  return total;
}

}  // namespace perfbench
