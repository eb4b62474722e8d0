// ndc-perfbench: the repo benchmark. Runs one workload's cold sweep and
// prints its metrics as one JSON line (the last line of stdout).
//
//   ndc-perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--reference FILE] [--scratch DIR]
//   ndc-perfbench --capture-reference FILE --seeds A-B
//
// --trace 0 times repeated cold sweeps for S seconds and reports the
// end-to-end metrics; --trace 1 runs one sweep plus the per-layer probes
// and reports the per-layer metrics. Run it through perfbench/run.py,
// which builds it first.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/cache.hpp"
#include "host.hpp"
#include "probes.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using ndc::harness::CellResult;
using ndc::harness::SweepResult;
using ndc::harness::SweepSpec;
using Clock = std::chrono::steady_clock;

/// Each timed sweep is preceded by set-up repetitions for at least this
/// long (one at least), so the set-up samples spread over the whole run as
/// the sweep samples do and see the same host; setup_s is their median.
constexpr double kSetupSliceSeconds = 0.5;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string reference;
  std::string scratch = ".bench_build";
  std::string capture;
  std::uint64_t seed_lo = 1, seed_hi = 1;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "ndc-perfbench: %s\n"
               "usage: ndc-perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "                     [--reference FILE] [--scratch DIR]\n"
               "       ndc-perfbench --capture-reference FILE --seeds A-B\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t ParseU64(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  std::uint64_t x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || v[0] == '-') Usage("bad value for " + flag + ": " + v);
  return x;
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = ParseU64(flag, v);
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(ParseU64(flag, v));
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--reference") {
      a.reference = v;
    } else if (flag == "--scratch") {
      a.scratch = v;
    } else if (flag == "--capture-reference") {
      a.capture = v;
    } else if (flag == "--seeds") {
      std::size_t dash = v.find('-');
      if (dash == std::string::npos) Usage("--seeds takes A-B");
      a.seed_lo = ParseU64(flag, v.substr(0, dash));
      a.seed_hi = ParseU64(flag, v.substr(dash + 1));
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (a.capture.empty() && a.workload.empty()) Usage("--workload is required");
  if (a.seconds < 1) Usage("--seconds must be at least 1");
  return a;
}

std::vector<std::string> Digests(const std::vector<CellResult>& cells) {
  std::vector<std::string> out;
  out.reserve(cells.size());
  for (const CellResult& c : cells) out.push_back(CellDigest(c));
  return out;
}

ndc::harness::SweepOptions ColdSweep() {
  ndc::harness::SweepOptions opt;
  opt.jobs = JobCount();
  opt.use_cache = false;
  return opt;
}

/// The reference digests for (workload, seed), or null when none are kept.
const std::vector<std::string>* FindReference(const Reference& ref, const std::string& workload,
                                              std::uint64_t seed) {
  auto w = ref.find(workload);
  if (w == ref.end()) return nullptr;
  auto s = w->second.find(seed);
  return s == w->second.end() ? nullptr : &s->second;
}

std::size_t CountTrue(const std::vector<bool>& v) {
  std::size_t n = 0;
  for (bool b : v) n += b;
  return n;
}

Reference LoadReference(const std::string& path) {
  Reference ref;
  if (path.empty()) return ref;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "ndc-perfbench: cannot read reference %s\n", path.c_str());
    std::exit(1);
  }
  std::stringstream ss;
  ss << in.rdbuf();
  std::string err;
  if (!ParseReference(ss.str(), &ref, &err)) {
    std::fprintf(stderr, "ndc-perfbench: bad reference %s: %s\n", path.c_str(), err.c_str());
    std::exit(1);
  }
  return ref;
}

/// Prints the context line: host, digest, reference state, and `extra`
/// (further JSON members, each preceded by a comma).
void PrintContext(const Args& a, const std::vector<std::string>& digests,
                  const std::vector<std::string>* expected, const std::string& extra) {
  const char* reference = expected == nullptr                                  ? "none"
                          : CountTrue(DigestFailures(digests, *expected)) == 0 ? "match"
                                                                                : "mismatch";
  std::printf("{\"context\": %s, \"workload\": \"%s\", \"seed\": %llu, \"digest\": \"%s\", "
              "\"reference\": \"%s\"%s}\n",
              HostContextJson(JobCount()).c_str(), a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), SweepDigest(digests).c_str(), reference,
              extra.c_str());
}

std::string JsonList(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + FormatNumber(v[i]);
  return out + "]";
}

// ------------------------------------------------------------- end to end ---

int RunEndToEnd(const Args& a, const SweepSpec& spec, const Reference& ref) {
  const std::vector<std::string>* expected = FindReference(ref, a.workload, a.seed);
  RepetitionCheck check(expected);
  std::vector<double> setup, wall, cpu;
  auto start = Clock::now();
  do {
    auto slice = Clock::now();
    do {
      auto t0 = Clock::now();
      std::uint64_t instrs = BuildInputs(spec);
      setup.push_back(Since(t0));
      if (instrs == 0) {
        std::fprintf(stderr, "ndc-perfbench: set-up produced no instructions\n");
        return 1;
      }
    } while (Since(slice) < kSetupSliceSeconds);
    double cpu0 = CpuSeconds();
    auto t0 = Clock::now();
    // A cell that throws ends the process (the sweep pool does not catch),
    // so the run prints no result and exits non-zero.
    SweepResult res = ndc::harness::RunSweep(spec, ColdSweep());
    wall.push_back(Since(t0));
    cpu.push_back(CpuSeconds() - cpu0);
    check.Add(Digests(res.cells), res.summary.sim_events, SanityFailures(spec.cells, res.cells));
  } while (Since(start) < a.seconds);

  PrintContext(a, check.first(), expected,
               ", \"sweep_s_samples\": " + JsonList(wall) + ", \"cpu_s_samples\": " +
                   JsonList(cpu) + ", \"setup_s_samples\": " + JsonList(setup));
  EndToEndInputs in;
  in.wall_s = wall;
  in.cpu_s = cpu;
  in.setup_s = setup;
  in.sim_events = check.first_events();
  in.peak_rss_mb = PeakRssMb();
  in.attempted = check.attempted();
  in.failed = check.failed();
  std::vector<Metric> m = EndToEndMetrics(in);
  bool correct = in.failed == 0 && in.sim_events > 0;
  std::printf("%s\n", ResultLine(correct, in.attempted, in.failed, m).c_str());
  return 0;
}

// -------------------------------------------------------------- per layer ---

/// Inserts every cell into a fresh ResultCache under `dir`, reopens it, and
/// reads every cell back. Returns the per-cell failure flags.
std::vector<bool> CacheRoundtrip(const SweepSpec& spec, const SweepResult& res,
                                 const std::string& dir) {
  std::filesystem::remove_all(dir);
  {
    ndc::harness::ResultCache cache(dir);
    for (std::size_t i = 0; i < spec.cells.size(); ++i) cache.Insert(spec.cells[i], res.cells[i]);
  }
  std::vector<bool> bad(spec.cells.size(), true);
  {
    ndc::harness::ResultCache cache(dir);
    for (std::size_t i = 0; i < spec.cells.size(); ++i) {
      CellResult back;
      bad[i] = !cache.Lookup(spec.cells[i], &back) || !(back == res.cells[i]);
    }
  }
  std::filesystem::remove_all(dir);
  return bad;
}

int RunLayers(const Args& a, const SweepSpec& spec, const Reference& ref) {
  int jobs = JobCount();
  double cpu0 = CpuSeconds();
  auto t0 = Clock::now();
  SweepResult res = ndc::harness::RunSweep(spec, ColdSweep());
  double wall = Since(t0);
  double cpu = CpuSeconds() - cpu0;
  std::vector<std::string> digests = Digests(res.cells);
  const std::vector<std::string>* expected = FindReference(ref, a.workload, a.seed);
  std::vector<bool> bad = SanityFailures(spec.cells, res.cells);
  std::vector<bool> ref_bad =
      expected == nullptr ? std::vector<bool>(bad.size()) : DigestFailures(digests, *expected);

  auto rt0 = Clock::now();
  std::vector<bool> rt_bad = CacheRoundtrip(spec, res, a.scratch + "/cache-roundtrip");
  double roundtrip_ms = Since(rt0) * 1e3;

  SpanRecorder spans;
  ProbeResult probe = RunProbes(spec, &spans);

  for (std::size_t i = 0; i < bad.size(); ++i) {
    bad[i] = bad[i] || ref_bad[i] || rt_bad[i] || probe.faulty[i] ||
             !(probe.cells[i] == res.cells[i]);
  }
  std::uint64_t failed = CountTrue(bad);

  std::string span_json = ", \"spans\": {";
  bool first = true;
  for (const auto& [name, t] : spans.totals()) {
    span_json += std::string(first ? "" : ", ") + "\"" + name + "\": {\"count\": " +
                 std::to_string(t.count) + ", \"ms\": " +
                 FormatNumber(static_cast<double>(t.ns) / 1e6) + "}";
    first = false;
  }
  span_json += "}, \"machine_runs\": " + std::to_string(TotalRuns(spec)) +
               ", \"distinct_runs\": " + std::to_string(probe.distinct_runs);
  PrintContext(a, digests, expected, span_json);

  LayerInputs in;
  in.sweep = &res;
  in.probe = &probe;
  in.spans = &spans;
  in.wall_s = wall;
  in.cpu_s = cpu;
  in.jobs = jobs;
  in.cache_roundtrip_ms = roundtrip_ms;
  std::vector<Metric> m = LayerMetrics(in);
  bool correct = failed == 0 && res.summary.sim_events > 0 &&
                 probe.conservation_violations == 0 && probe.verify_errors == 0;
  std::printf("%s\n", ResultLine(correct, res.cells.size(), failed, m).c_str());
  return 0;
}

// -------------------------------------------------------------- reference ---

int Capture(const Args& a) {
  Reference ref;
  for (const std::string& w : WorkloadNames()) {
    for (std::uint64_t seed = a.seed_lo; seed <= a.seed_hi; ++seed) {
      SweepSpec spec = BuildSpec(w, seed);
      SweepResult res = ndc::harness::RunSweep(spec, ColdSweep());
      if (CountTrue(SanityFailures(spec.cells, res.cells)) != 0) {
        std::fprintf(stderr, "ndc-perfbench: %s seed %llu fails its sanity checks\n", w.c_str(),
                     static_cast<unsigned long long>(seed));
        return 1;
      }
      ref[w][seed] = Digests(res.cells);
      std::fprintf(stderr, "captured %s seed %llu\n", w.c_str(),
                   static_cast<unsigned long long>(seed));
    }
  }
  std::ofstream out(a.capture);
  out << DumpReference(ref);
  return out ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a = ParseArgs(argc, argv);
  if (!a.capture.empty()) return Capture(a);
  SweepSpec spec;
  try {
    spec = BuildSpec(a.workload, a.seed);
  } catch (const std::exception& e) {
    Usage(e.what());
  }
  Reference ref = LoadReference(a.reference);
  return a.trace ? RunLayers(a, spec, ref) : RunEndToEnd(a, spec, ref);
}
