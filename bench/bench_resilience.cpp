// bench_resilience — degradation curve of an NDC scheme under synthetic
// fault storms of increasing intensity.
//
// For each benchmark, runs the scheme fault-free (the healthy reference),
// then once per --intensities factor under a MakeStorm schedule scaled to
// that intensity: NoC link outages/slowdowns, DRAM bank stall/NACK windows,
// and MC queue-pressure spikes, with the timeout/retry/degrade machinery
// enabled. Prints one table row per (benchmark, intensity) and optionally
// writes the full curve as a JSON report (--out=FILE).
//
// After every faulted run the request-conservation invariant is checked:
// every issued request must be accounted for as completed, degraded to the
// host core, or dropped-and-retransmitted. A violation prints the failing
// identities and exits 1 — faults may slow a run down, never lose work.
//
// Storms are deterministic: the same --storm-seed reproduces the same
// windows and the same in-run fault draws, so every row is replayable.

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "cli/flags.hpp"
#include "fault/fault.hpp"
#include "harness/cell.hpp"
#include "json/json.hpp"
#include "metrics/experiment.hpp"

namespace {

using ndc::fault::CheckConservation;
using ndc::fault::ConservationReport;
using ndc::fault::FaultSchedule;
using ndc::fault::InjectionCounts;
using ndc::fault::MakeStorm;
using ndc::fault::StormSpec;
namespace json = ndc::json;

struct ResArgs {
  ndc::workloads::Scale scale = ndc::workloads::Scale::kSmall;
  std::string only;
  std::vector<double> intensities = {0.25, 0.5, 0.75, 1.0};
  std::uint64_t storm_seed = 1;
  int max_retries = 2;
  std::string out_path;
};

[[noreturn]] void UsageAndExit(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [--scale=test|small|full] [--bench=NAME]\n"
               "         [--intensities=X,Y,...] [--storm-seed=N] [--max-retries=N]\n"
               "         [--out=FILE]\n",
               prog);
  std::exit(2);
}

/// Parses a decimal flag value in [0, max]; an empty value, a sign,
/// trailing characters or an out-of-range value is a usage error.
std::uint64_t ParseCount(const char* prog, const char* flag, const char* s,
                         std::uint64_t max) {
  std::optional<std::uint64_t> n = ndc::cli::ParseUintFlag(
      prog, flag, s, 0, max, "an integer in [0, " + std::to_string(max) + "]");
  if (!n) UsageAndExit(prog);
  return *n;
}

ResArgs Parse(int argc, char** argv) {
  ResArgs a;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--scale=test") == 0) {
      a.scale = ndc::workloads::Scale::kTest;
    } else if (std::strcmp(arg, "--scale=small") == 0) {
      a.scale = ndc::workloads::Scale::kSmall;
    } else if (std::strcmp(arg, "--scale=full") == 0) {
      a.scale = ndc::workloads::Scale::kFull;
    } else if (std::strncmp(arg, "--bench=", 8) == 0) {
      a.only = arg + 8;
    } else if (std::strncmp(arg, "--intensities=", 14) == 0) {
      a.intensities.clear();
      const char* p = arg + 14;
      while (*p != '\0') {
        char* end = nullptr;
        double v = std::strtod(p, &end);
        if (end == p || v < 0.0) UsageAndExit(argv[0]);
        a.intensities.push_back(v);
        p = (*end == ',') ? end + 1 : end;
      }
      if (a.intensities.empty()) UsageAndExit(argv[0]);
    } else if (std::strncmp(arg, "--storm-seed=", 13) == 0) {
      a.storm_seed = ParseCount(argv[0], "--storm-seed", arg + 13, UINT64_MAX);
    } else if (std::strncmp(arg, "--max-retries=", 14) == 0) {
      a.max_retries = static_cast<int>(ParseCount(argv[0], "--max-retries", arg + 14, INT_MAX));
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      a.out_path = arg + 6;
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], arg);
      UsageAndExit(argv[0]);
    }
  }
  return a;
}

json::Value RowJson(const std::string& workload, double intensity,
                    const ndc::metrics::SchemeResult& r, std::uint64_t healthy,
                    std::uint64_t retries, std::uint64_t degraded,
                    const InjectionCounts& inj, bool conserved) {
  json::Value row = json::Value::Object();
  row.obj["workload"] = json::Value::Str(workload);
  row.obj["intensity"] = json::Value::Double(intensity);
  row.obj["makespan"] = json::Value::Int(r.run.makespan);
  row.obj["healthy_makespan"] = json::Value::Int(healthy);
  double slowdown = healthy == 0 ? 0.0
                                 : (static_cast<double>(r.run.makespan) /
                                        static_cast<double>(healthy) -
                                    1.0) * 100.0;
  row.obj["slowdown_pct"] = json::Value::Double(slowdown);
  row.obj["events"] = json::Value::Int(r.run.events);
  row.obj["events_per_cycle"] = json::Value::Double(
      r.run.makespan == 0 ? 0.0
                          : static_cast<double>(r.run.events) /
                                static_cast<double>(r.run.makespan));
  row.obj["offloads"] = json::Value::Int(r.run.offloads);
  row.obj["ndc_success"] = json::Value::Int(r.run.ndc_success);
  row.obj["fallbacks"] = json::Value::Int(r.run.fallbacks);
  row.obj["retries"] = json::Value::Int(retries);
  row.obj["degraded_to_host"] = json::Value::Int(degraded);
  json::Value injected = json::Value::Object();
  injected.obj["link_delays"] = json::Value::Int(inj.link_delays);
  injected.obj["link_drops"] = json::Value::Int(inj.link_drops);
  injected.obj["bank_stalls"] = json::Value::Int(inj.bank_stalls);
  injected.obj["bank_nacks"] = json::Value::Int(inj.bank_nacks);
  injected.obj["mc_pressure_hits"] = json::Value::Int(inj.mc_pressure_hits);
  row.obj["injected"] = injected;
  row.obj["conserved"] = json::Value::Bool(conserved);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  ResArgs args = Parse(argc, argv);
  const ndc::metrics::Scheme scheme = ndc::metrics::Scheme::kAlgorithm1;
  ndc::arch::ArchConfig cfg;

  std::printf("# Resilience degradation curve: %s under synthetic fault storms  "
              "(scale=%s, storm-seed=%llu, max-retries=%d)\n",
              ndc::metrics::SchemeName(scheme), ndc::harness::ScaleName(args.scale),
              static_cast<unsigned long long>(args.storm_seed), args.max_retries);
  std::printf("%-10s %9s %10s %9s %8s %8s %8s %7s %7s %7s  %s\n", "benchmark",
              "intensity", "makespan", "slowdown", "offloads", "degraded", "retries",
              "drops", "nacks", "stalls", "ok");

  json::Value rows = json::Value::Array();
  for (const std::string& w : ndc::workloads::BenchmarkNames()) {
    if (!args.only.empty() && w != args.only) continue;
    ndc::metrics::Experiment exp(w, args.scale, cfg);

    // Healthy reference: the scheme fault-free (the curve's y-axis origin).
    ndc::metrics::SchemeResult healthy = exp.Run(scheme);
    std::uint64_t href = healthy.run.makespan;
    std::printf("%-10s %9s %10llu %+8.1f%% %8llu %8u %8u %7u %7u %7u  %s\n", w.c_str(),
                "healthy", static_cast<unsigned long long>(href), 0.0,
                static_cast<unsigned long long>(healthy.run.offloads), 0u, 0u, 0u, 0u,
                0u, "yes");
    rows.arr.push_back(RowJson(w, 0.0, healthy, href, 0, 0, InjectionCounts{}, true));

    // Storm windows must overlap the run; size the horizon off the healthy
    // makespan (faulted runs only stretch past it, never shrink under it).
    StormSpec storm;
    storm.num_links = static_cast<std::uint64_t>(cfg.num_nodes()) * 4;
    storm.num_mcs = static_cast<std::uint64_t>(cfg.num_mcs);
    storm.banks_per_mc = static_cast<std::uint64_t>(cfg.MakeAddressMap().banks_per_mc);
    storm.horizon = href;
    storm.seed = args.storm_seed;
    storm.max_retries = args.max_retries;

    for (double x : args.intensities) {
      storm.intensity = x;
      FaultSchedule sched = MakeStorm(storm);
      ndc::metrics::SchemeResult r = exp.Run(scheme, {nullptr, &sched});

      std::uint64_t retries = r.run.stats.Get("ndc.retries");
      std::uint64_t degraded = r.run.stats.Get("ndc.degraded_to_host");
      ndc::metrics::FaultReport fr = r.fault_report.value_or(ndc::metrics::FaultReport{});
      InjectionCounts inj = fr.injections;
      ConservationReport rep = CheckConservation(fr.conservation);
      double slowdown = href == 0 ? 0.0
                                  : (static_cast<double>(r.run.makespan) /
                                         static_cast<double>(href) -
                                     1.0) * 100.0;
      std::printf("%-10s %9.2f %10llu %+8.1f%% %8llu %8llu %8llu %7llu %7llu %7llu  %s\n",
                  w.c_str(), x, static_cast<unsigned long long>(r.run.makespan), slowdown,
                  static_cast<unsigned long long>(r.run.offloads),
                  static_cast<unsigned long long>(degraded),
                  static_cast<unsigned long long>(retries),
                  static_cast<unsigned long long>(inj.link_drops),
                  static_cast<unsigned long long>(inj.bank_nacks),
                  static_cast<unsigned long long>(inj.bank_stalls),
                  rep.ok ? "yes" : "NO");
      rows.arr.push_back(RowJson(w, x, r, href, retries, degraded, inj, rep.ok));
      if (!rep.ok) {
        std::fprintf(stderr, "bench_resilience: conservation violated (%s, x=%.2f):\n%s",
                     w.c_str(), x, rep.ToString().c_str());
        return 1;
      }
    }
  }

  if (!args.out_path.empty()) {
    json::Value report = json::Value::Object();
    report.obj["bench"] = json::Value::Str("resilience");
    report.obj["scheme"] = json::Value::Str(ndc::metrics::SchemeName(scheme));
    report.obj["scale"] = json::Value::Str(ndc::harness::ScaleName(args.scale));
    report.obj["storm_seed"] = json::Value::Int(args.storm_seed);
    report.obj["max_retries"] = json::Value::Int(static_cast<std::uint64_t>(args.max_retries));
    report.obj["rows"] = rows;
    std::ofstream f(args.out_path);
    if (!f) {
      std::fprintf(stderr, "bench_resilience: cannot write %s\n", args.out_path.c_str());
      return 2;
    }
    f << json::Dump(report) << "\n";
  }
  std::printf("\nfaults slow execution down but never lose requests: every offload either\n"
              "completes near data, falls back, or is degraded to the host core after\n"
              "exhausting its retry budget.\n");
  return 0;
}
