#include "probes.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "core/simd.h"
#include "ml/fourier.h"
#include "ml/sfa.h"
#include "report.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// WEASEL's defaults (tsc/weasel.h): 4-symbol words over (4 + 1) / 2 complex
// DFT coefficients. The probes use the middle of WEASEL's window range.
constexpr size_t kWordLength = 4;
constexpr size_t kAlphabet = 4;
constexpr size_t kCoefficients = (kWordLength + 1) / 2;
constexpr int kRounds = 7;  // timing rounds; the median round is reported

volatile double g_sink = 0.0;  // keeps probe results observable

std::vector<double> Channel0(const etsc::TimeSeries& series) {
  const auto channel = series.channel(0);
  return std::vector<double>(channel.begin(), channel.end());
}

/// Median over rounds of (round time / calls), in nanoseconds.
template <typename Body>
double NsPerCall(size_t calls, Body&& body) {
  std::vector<double> rounds;
  for (int r = 0; r < kRounds; ++r) {
    const auto start = Clock::now();
    for (size_t i = 0; i < calls; ++i) body(i);
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    rounds.push_back(ns / static_cast<double>(calls));
  }
  return Summarize(rounds).median;
}

}  // namespace

ProbeResults RunProbes(const std::vector<const etsc::Dataset*>& datasets) {
  ProbeResults out;
  std::vector<std::vector<double>> series;
  std::vector<int> labels;
  for (const etsc::Dataset* data : datasets) {
    for (size_t i = 0; i < data->size(); ++i) {
      series.push_back(Channel0(data->instance(i)));
      labels.push_back(data->label(i));
    }
  }
  if (series.size() < 2) return out;
  const size_t count = series.size();

  // SumSqDiff over pairs of the workload's series at their own lengths.
  double bytes = 0.0;
  for (size_t i = 0; i < count; ++i) {
    bytes += 16.0 * static_cast<double>(
                        std::min(series[i].size(), series[(i + 1) % count].size()));
  }
  out.sum_sq_diff.bytes_per_call = bytes / static_cast<double>(count);
  out.sum_sq_diff.ns_per_call = NsPerCall(count * 20, [&](size_t i) {
    const auto& a = series[i % count];
    const auto& b = series[(i + 1) % count];
    g_sink = g_sink + etsc::simd::SumSqDiff(a.data(), b.data(),
                                            std::min(a.size(), b.size()));
  });

  // RotatePhasors: one sliding-DFT shift over WEASEL's coefficient count,
  // fed each series' successive values.
  std::vector<double> cos_t(kCoefficients), sin_t(kCoefficients);
  for (size_t k = 0; k < kCoefficients; ++k) {
    cos_t[k] = std::cos(0.1 * static_cast<double>(k + 1));
    sin_t[k] = std::sin(0.1 * static_cast<double>(k + 1));
  }
  std::vector<double> re(kCoefficients, 0.0), im(kCoefficients, 0.0);
  std::vector<double> flat;
  for (const auto& s : series) flat.insert(flat.end(), s.begin(), s.end());
  out.rotate_phasors.bytes_per_call =
      8.0 * 6.0 * static_cast<double>(kCoefficients);  // read 4k, write 2k
  out.rotate_phasors.ns_per_call = NsPerCall(flat.size(), [&](size_t i) {
    etsc::simd::RotatePhasors(cos_t.data(), sin_t.data(), flat[i] * 1e-3,
                              re.data(), im.data(), kCoefficients);
  });
  g_sink = g_sink + re[0];

  // SplitScan: the GBDT split search over one time-point's values across the
  // training instances, gradients from the labels.
  const size_t n = count;
  std::vector<std::vector<double>> xv_cols, pg_cols, ph_cols;
  std::vector<double> totals_g;
  const size_t columns = 16;
  for (size_t c = 0; c < columns; ++c) {
    std::vector<std::pair<double, double>> column;  // (value, gradient)
    for (size_t i = 0; i < n; ++i) {
      const auto& s = series[i];
      const double value = s[(c * s.size()) / columns];
      column.emplace_back(value, labels[i] == labels[0] ? -0.5 : 0.5);
    }
    std::sort(column.begin(), column.end());
    std::vector<double> xv(n), pg(n), ph(n);
    double g = 0.0, h = 0.0;
    for (size_t i = 0; i < n; ++i) {
      xv[i] = column[i].first;
      g += column[i].second;
      h += 0.25;
      pg[i] = g;
      ph[i] = h;
    }
    totals_g.push_back(g);
    xv_cols.push_back(std::move(xv));
    pg_cols.push_back(std::move(pg));
    ph_cols.push_back(std::move(ph));
  }
  const double total_h = 0.25 * static_cast<double>(n);
  out.split_scan.bytes_per_call = 24.0 * static_cast<double>(n);
  out.split_scan.ns_per_call = NsPerCall(columns * 200, [&](size_t i) {
    const size_t c = i % columns;
    const auto best = etsc::simd::SplitScan(
        xv_cols[c].data(), pg_cols[c].data(), ph_cols[c].data(), n,
        totals_g[c], total_h, totals_g[c] * totals_g[c] / total_h, 1);
    g_sink = g_sink + best.gain;
  });

  // ml: SlidingDft per series, then SFA fit and information-gain binning on
  // the windows of one window size, like one WEASEL window pass.
  size_t shortest = series[0].size();
  for (const auto& s : series) shortest = std::min(shortest, s.size());
  const size_t window = std::max<size_t>(4, (4 + shortest) / 2);
  out.sliding_dft_us =
      NsPerCall(count, [&](size_t i) {
        const auto coeffs =
            etsc::SlidingDft(series[i], window, kCoefficients, false);
        g_sink = g_sink + coeffs.front().front();
      }) /
      1e3;

  std::vector<std::vector<double>> windows;
  std::vector<int> window_labels;
  std::vector<std::pair<double, int>> first_coefficient;
  for (size_t i = 0; i < count; ++i) {
    const auto coeffs = etsc::SlidingDft(series[i], window, kCoefficients, false);
    for (size_t start = 0; start + window <= series[i].size(); ++start) {
      windows.emplace_back(series[i].begin() + start,
                           series[i].begin() + start + window);
      window_labels.push_back(labels[i]);
      first_coefficient.emplace_back(coeffs[start][0], labels[i]);
    }
  }
  out.info_gain_bins_ms =
      NsPerCall(1, [&](size_t) {
        g_sink = g_sink +
                 etsc::InformationGainBins(first_coefficient, kAlphabet).size();
      }) /
      1e6;
  etsc::SfaOptions sfa_options;
  sfa_options.word_length = kWordLength;
  sfa_options.alphabet_size = kAlphabet;
  out.sfa_fit_ms = NsPerCall(1, [&](size_t) {
                     etsc::Sfa sfa(sfa_options);
                     g_sink = g_sink + (sfa.Fit(windows, window_labels).ok() ? 1 : 0);
                   }) /
                   1e6;
  return out;
}

}  // namespace perfbench
