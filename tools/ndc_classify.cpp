// ndc-classify — render the bottleneck-classification table across the lint
// workload set (the paper's 20 benchmarks plus the shard.* family).
//
// Each workload is re-simulated once with the observation bundle and the
// phase-window sampler attached, its utilization-signal vector is derived
// from the run's touched-only counters, and the DAMOV-style classifier maps
// the vector to a stable label. The table is sorted by workload name and
// byte-stable across same-seed runs: fractions render through the shared
// fixed-precision formatter, never free-form doubles.
//
// --json additionally exports one row per workload with the *full*
// classification object (raw + derived signals, thresholds, per-window
// series) — the machine-readable artifact CI uploads.
//
// With NDC_OBS=OFF the tool exits 1 by design (there is nothing to sample).
//
// Usage:
//   ndc-classify [--scale=test|small|full] [--scheme=baseline|oracle|alg1|alg2]
//                [--only=NAME] [--window=CYCLES] [--seed=N] [--json=FILE]

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "cli/flags.hpp"
#include "harness/cell.hpp"
#include "json/json.hpp"
#include "metrics/experiment.hpp"
#include "obs/obs.hpp"
#include "workloads/sharded.hpp"
#include "workloads/workloads.hpp"

namespace {

using ndc::json::Dump;
using ndc::json::Value;

struct ClassifyArgs {
  ndc::workloads::Scale scale = ndc::workloads::Scale::kTest;
  std::string scheme = "baseline";
  std::string only;
  std::uint64_t window = ndc::harness::kDefaultClassifyWindow;
  std::uint64_t seed = 1;
  std::string json_path;
};

[[noreturn]] void UsageAndExit() {
  std::fprintf(stderr,
               "usage: ndc-classify [--scale=test|small|full]\n"
               "         [--scheme=baseline|oracle|alg1|alg2] [--only=NAME]\n"
               "         [--window=CYCLES] [--seed=N] [--json=FILE]\n");
  std::exit(2);
}

/// Parses a positive decimal flag value; an empty value, a sign, trailing
/// characters, zero or an out-of-range value is a usage error.
std::uint64_t ParsePositive(const char* flag, const char* s) {
  std::optional<std::uint64_t> n =
      ndc::cli::ParseUintFlag("ndc-classify", flag, s, 1, UINT64_MAX, "a positive integer");
  if (!n) UsageAndExit();
  return *n;
}

ClassifyArgs Parse(int argc, char** argv) {
  ClassifyArgs a;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--scale=test") == 0) {
      a.scale = ndc::workloads::Scale::kTest;
    } else if (std::strcmp(arg, "--scale=small") == 0) {
      a.scale = ndc::workloads::Scale::kSmall;
    } else if (std::strcmp(arg, "--scale=full") == 0) {
      a.scale = ndc::workloads::Scale::kFull;
    } else if (std::strncmp(arg, "--scheme=", 9) == 0) {
      a.scheme = arg + 9;
      if (a.scheme != "baseline" && a.scheme != "oracle" && a.scheme != "alg1" &&
          a.scheme != "alg2") {
        std::fprintf(stderr, "ndc-classify: unknown scheme '%s'\n", a.scheme.c_str());
        UsageAndExit();
      }
    } else if (std::strncmp(arg, "--only=", 7) == 0) {
      a.only = arg + 7;
    } else if (std::strncmp(arg, "--window=", 9) == 0) {
      a.window = ParsePositive("--window", arg + 9);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      a.seed = ParsePositive("--seed", arg + 7);
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      a.json_path = arg + 7;
    } else {
      std::fprintf(stderr, "ndc-classify: unknown argument '%s'\n", arg);
      UsageAndExit();
    }
  }
  return a;
}

/// The lint workload set, sorted by name for a byte-stable table.
std::vector<std::string> ClassifiedWorkloads(const std::string& only) {
  std::vector<std::string> names = ndc::workloads::BenchmarkNames();
  for (const std::string& s : ndc::workloads::ShardedNames()) names.push_back(s);
  std::sort(names.begin(), names.end());
  if (!only.empty()) {
    std::vector<std::string> filtered;
    for (const std::string& n : names) {
      if (n == only) filtered.push_back(n);
    }
    return filtered;
  }
  return names;
}

}  // namespace

int main(int argc, char** argv) {
  ClassifyArgs args = Parse(argc, argv);
  if constexpr (!ndc::obs::kObsEnabled) {
    std::fprintf(stderr,
                 "ndc-classify: observability is compiled out (NDC_OBS=OFF); "
                 "nothing to sample\n");
    return 1;
  }

  std::vector<std::string> names = ClassifiedWorkloads(args.only);
  if (names.empty()) {
    std::fprintf(stderr, "ndc-classify: no workload matches '%s'\n", args.only.c_str());
    return 2;
  }

  const char* scale_name = args.scale == ndc::workloads::Scale::kTest    ? "test"
                           : args.scale == ndc::workloads::Scale::kSmall ? "small"
                                                                         : "full";
  std::printf("# bottleneck classification  (scheme=%s, scale=%s, window=%llu, seed=%llu)\n",
              args.scheme.c_str(), scale_name,
              static_cast<unsigned long long>(args.window),
              static_cast<unsigned long long>(args.seed));
  std::printf("%-20s %-12s %10s  %s\n", "workload", "label", "makespan", "signals");

  Value rows = Value::Array();
  ndc::arch::ArchConfig cfg;  // Table-1 defaults
  for (const std::string& name : names) {
    ndc::obs::ObsOptions oo;
    oo.sample_period = 1;
    oo.emit_stage_events = false;
    oo.window_cycles = args.window;
    ndc::obs::Observability ob(oo);
    ndc::metrics::Experiment exp(name, args.scale, cfg, args.seed);
    ndc::metrics::RunOptions ro{&ob};

    ndc::metrics::SchemeResult r;
    if (args.scheme == "baseline") {
      r = exp.Run(ndc::metrics::Scheme::kBaseline, ro);
    } else if (args.scheme == "oracle") {
      r = exp.Run(ndc::metrics::Scheme::kOracle, ro);
    } else {
      ndc::compiler::CompileOptions opt;
      opt.mode = args.scheme == "alg2" ? ndc::compiler::Mode::kAlgorithm2
                                       : ndc::compiler::Mode::kAlgorithm1;
      r = exp.RunCompiled(opt, ro);
    }

    ndc::obs::UtilizationSignals sig =
        ndc::harness::ComputeRunSignals(r.run.stats, r.run.makespan, cfg, &ob.registry);
    ndc::obs::Label label = ndc::obs::Classify(sig);
    std::printf("%-20s %-12s %10llu  %s\n", name.c_str(), ndc::obs::LabelName(label),
                static_cast<unsigned long long>(r.run.makespan),
                ndc::obs::SignalsToText(sig).c_str());

    Value row = Value::Object();
    row.obj["workload"] = Value::Str(name);
    row.obj["scheme"] = Value::Str(args.scheme);
    row.obj["scale"] = Value::Str(scale_name);
    row.obj["seed"] = Value::Int(args.seed);
    row.obj["classification"] = ndc::harness::ClassificationJson(sig, ob.sampler);
    rows.arr.push_back(std::move(row));
  }

  if (!args.json_path.empty()) {
    std::ofstream f(args.json_path);
    if (!f) {
      std::fprintf(stderr, "ndc-classify: cannot write %s\n", args.json_path.c_str());
      return 1;
    }
    f << Dump(rows) << "\n";
  }
  return 0;
}
