#ifndef ETSC_CORE_ENV_H_
#define ETSC_CORE_ENV_H_

#include <cstdint>
#include <string>

namespace etsc::env {

/// Validated numeric environment knob, one contract for every ETSC_* number
/// (the ETSC_THREADS pattern from the threading layer): unset or empty keeps
/// the fallback silently; anything that does not parse as a finite number in
/// [lo, hi] (trailing junk included) logs a warning under `subsystem` and
/// keeps the fallback. Never throws, never aborts — a hostile environment can
/// only ever cost a warning line.
double NumberOr(const char* subsystem, const char* name, double fallback,
                double lo, double hi);

/// Integer knob, same contract as NumberOr: the value must be a plain
/// decimal count in [lo, hi] (surrounding whitespace allowed; no sign, no
/// fraction, no trailing junk), otherwise it warns and keeps the fallback.
uint64_t CountOr(const char* subsystem, const char* name, uint64_t fallback,
                 uint64_t lo, uint64_t hi);

/// String knob: unset or empty yields the fallback, anything else verbatim.
std::string StringOr(const char* name, const char* fallback);

}  // namespace etsc::env

#endif  // ETSC_CORE_ENV_H_
