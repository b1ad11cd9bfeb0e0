// Per-call timings of the simd kernels and the ml building blocks of WEASEL,
// taken on the workload's own series (the layers below the classifiers,
// which the decorators cannot see from outside).
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <vector>

#include "core/dataset.h"

namespace perfbench {

struct KernelTiming {
  double ns_per_call = 0.0;
  double bytes_per_call = 0.0;  // computed from argument sizes, not measured
};

struct ProbeResults {
  KernelTiming rotate_phasors;
  KernelTiming split_scan;
  KernelTiming sum_sq_diff;
  double sliding_dft_us = 0.0;     // one series, WEASEL's coefficient count
  double info_gain_bins_ms = 0.0;  // one coefficient column of a window set
  double sfa_fit_ms = 0.0;         // one window size over a training set
};

/// Times each call on inputs cut from `datasets` (univariate view: channel 0).
ProbeResults RunProbes(const std::vector<const etsc::Dataset*>& datasets);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
