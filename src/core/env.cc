#include "core/env.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <string_view>

#include "core/log.h"

namespace etsc::env {

namespace {

/// True when `rest` holds only trailing whitespace after a strtod parse.
bool OnlyTrailingSpace(const char* rest) {
  if (rest == nullptr) return false;
  while (*rest != '\0') {
    if (!std::isspace(static_cast<unsigned char>(*rest))) return false;
    ++rest;
  }
  return true;
}

}  // namespace

double NumberOr(const char* subsystem, const char* name, double fallback,
                double lo, double hi) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(raw, &end);
  if (end == raw || !OnlyTrailingSpace(end) || errno == ERANGE ||
      !std::isfinite(parsed) || !(parsed >= lo) || !(parsed <= hi)) {
    Logf(LogLevel::kWarn, subsystem,
         "ignoring invalid %s='%s' (want a number in [%g, %g])", name, raw,
         lo, hi);
    return fallback;
  }
  return parsed;
}

uint64_t CountOr(const char* subsystem, const char* name, uint64_t fallback,
                 uint64_t lo, uint64_t hi) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  std::string_view text(raw);
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text[0]))) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  uint64_t parsed = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, parsed);
  if (text.empty() || ec != std::errc() || ptr != end || parsed < lo ||
      parsed > hi) {
    Logf(LogLevel::kWarn, subsystem,
         "ignoring invalid %s='%s' (want an integer in [%llu, %llu])", name,
         raw, static_cast<unsigned long long>(lo),
         static_cast<unsigned long long>(hi));
    return fallback;
  }
  return parsed;
}

std::string StringOr(const char* name, const char* fallback) {
  const char* raw = std::getenv(name);
  return (raw == nullptr || *raw == '\0') ? fallback : raw;
}

}  // namespace etsc::env
