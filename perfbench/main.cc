// Entry point of the repository benchmark binary. Normally started by
// perfbench/run.py, which builds it and supplies every argument:
//
//   perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//             --results-dir <dir> --work-dir <dir> --revision <text>
//
// Every flag is required and validated; anything malformed exits with code 2
// and a message, never a silent default.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <system_error>

#include "workload.h"

namespace {

int Usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <1..60> --trace <0|1> --results-dir <dir> "
               "--work-dir <dir> --revision <text>\n",
               problem.c_str());
  return 2;
}

/// Whole-string unsigned decimal parse; false on sign, junk or overflow.
bool ParseUnsigned(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      return Usage("expected '--flag value' pairs, got '" + flag + "'");
    }
    if (!flags.emplace(flag.substr(2), argv[i + 1]).second) {
      return Usage("flag " + flag + " given twice");
    }
  }
  const char* required[] = {"workload",    "seed",     "seconds", "trace",
                            "results-dir", "work-dir", "revision"};
  for (const char* name : required) {
    if (flags.find(name) == flags.end()) {
      return Usage(std::string("missing --") + name);
    }
  }
  if (flags.size() != sizeof(required) / sizeof(required[0])) {
    return Usage("unknown flag given");
  }

  perfbench::Args args;
  args.workload = flags["workload"];
  bool known = false;
  for (const auto& name : perfbench::WorkloadNames()) known |= name == args.workload;
  if (!known) return Usage("unknown workload '" + args.workload + "'");
  if (!ParseUnsigned(flags["seed"], &args.seed)) {
    return Usage("--seed must be a non-negative integer, got '" + flags["seed"] + "'");
  }
  uint64_t seconds = 0;
  if (!ParseUnsigned(flags["seconds"], &seconds) || seconds < 1 || seconds > 60) {
    return Usage("--seconds must be an integer in [1, 60], got '" +
                 flags["seconds"] + "'");
  }
  args.seconds = static_cast<int>(seconds);
  if (flags["trace"] != "0" && flags["trace"] != "1") {
    return Usage("--trace must be 0 or 1, got '" + flags["trace"] + "'");
  }
  args.trace = flags["trace"] == "1";
  args.results_dir = flags["results-dir"];
  args.work_dir = flags["work-dir"];
  args.revision = flags["revision"];
  if (args.results_dir.empty() || args.work_dir.empty()) {
    return Usage("--results-dir and --work-dir must be non-empty");
  }
  return perfbench::RunWorkload(args);
}
