#pragma once

// Shared argument parsing for the diagnostic bench binaries. Figures and
// tables are rendered by `ndc-sweep --figure=NAME`, not from here.
//
// benchutil::Parse is strict: an unknown or misspelled argument (e.g.
// --scale=ful) prints a usage message and exits non-zero instead of being
// silently ignored.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/cell.hpp"
#include "metrics/experiment.hpp"

namespace ndc::benchutil {

struct ParseSpec {
  bool positional_name = false;  ///< accept one leading positional workload name
  bool allow_all = false;        ///< accept the --all flag (export_records)
};

struct Args {
  workloads::Scale scale = workloads::Scale::kSmall;
  std::string only;        ///< run a single benchmark when non-empty
  std::string positional;  ///< leading positional name (ParseSpec::positional_name)
  bool all = false;        ///< --all (ParseSpec::allow_all)
};

[[noreturn]] inline void UsageAndExit(const char* prog, const ParseSpec& spec) {
  std::fprintf(stderr, "usage: %s%s%s [--scale=test|small|full] [--bench=NAME]\n", prog,
               spec.positional_name ? " [WORKLOAD]" : "", spec.allow_all ? " [--all]" : "");
  std::exit(2);
}

inline Args Parse(int argc, char** argv, workloads::Scale default_scale,
                  const ParseSpec& spec = {}) {
  Args a;
  a.scale = default_scale;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (spec.positional_name && i == 1 && arg[0] != '-') {
      a.positional = arg;
    } else if (std::strcmp(arg, "--scale=test") == 0) {
      a.scale = workloads::Scale::kTest;
    } else if (std::strcmp(arg, "--scale=small") == 0) {
      a.scale = workloads::Scale::kSmall;
    } else if (std::strcmp(arg, "--scale=full") == 0) {
      a.scale = workloads::Scale::kFull;
    } else if (std::strncmp(arg, "--scale=", 8) == 0) {
      std::fprintf(stderr, "%s: unknown scale '%s' (expected test|small|full)\n",
                   argv[0], arg + 8);
      UsageAndExit(argv[0], spec);
    } else if (std::strncmp(arg, "--bench=", 8) == 0) {
      a.only = arg + 8;
    } else if (spec.allow_all && std::strcmp(arg, "--all") == 0) {
      a.all = true;
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], arg);
      UsageAndExit(argv[0], spec);
    }
  }
  return a;
}

}  // namespace ndc::benchutil
