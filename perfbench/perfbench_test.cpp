// Tests of the benchmark's own code: spec builders, run accounting, derived
// metrics, digests and the reference, and agreement with BENCHMARK.json.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <fstream>
#include <set>
#include <sstream>

#include "harness/json.hpp"
#include "probes.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace json = ndc::harness::json;
using ndc::harness::CellResult;
using ndc::harness::CellSpec;
using ndc::harness::SweepSpec;
using ndc::metrics::Scheme;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

CellResult WithStats(std::uint64_t row_hits, std::uint64_t row_misses) {
  CellResult r;
  r.stats["mc.row_hits"] = row_hits;
  r.stats["mc.row_misses"] = row_misses;
  return r;
}

/// A test-scale spec covering every run kind: the Figure-4 schemes on one
/// kernel plus a sync scenario under the baseline scheme.
SweepSpec SmallSpec(std::uint64_t seed) {
  SweepSpec spec;
  spec.figure = "small";
  for (Scheme s : {Scheme::kDefault, Scheme::kOracle, Scheme::kWait25, Scheme::kMarkov,
                   Scheme::kAlgorithm1, Scheme::kAlgorithm2}) {
    CellSpec c;
    c.workload = "swim";
    c.scale = ndc::workloads::Scale::kTest;
    c.seed = seed;
    c.scheme = s;
    spec.cells.push_back(c);
  }
  CellSpec sync;
  sync.workload = "shard.reduce.lock";
  sync.scale = ndc::workloads::Scale::kTest;
  sync.seed = seed;
  spec.cells.push_back(sync);
  return spec;
}

/// The benchmark contract's name rule: [A-Za-z0-9_.-]+.
bool ValidName(const std::string& name) {
  return !name.empty() && std::all_of(name.begin(), name.end(), [](char ch) {
    return std::isalnum(static_cast<unsigned char>(ch)) || ch == '_' || ch == '.' || ch == '-';
  });
}

/// The per-layer metrics of an empty traced pass (names and units only).
std::vector<Metric> EmptyLayerMetrics() {
  ndc::harness::SweepResult sweep;
  ProbeResult probe;
  SpanRecorder spans;
  LayerInputs in;
  in.sweep = &sweep;
  in.probe = &probe;
  in.spans = &spans;
  return LayerMetrics(in);
}

ndc::harness::SweepOptions Cold(int jobs) {
  ndc::harness::SweepOptions opt;
  opt.jobs = jobs;
  opt.use_cache = false;
  return opt;
}

// ---------------------------------------------------------- derived metrics

TEST(DerivedMetrics, RepeatEventsFrac) {
  EXPECT_DOUBLE_EQ(RepeatEventsFrac(50, 100), 0.5);
  EXPECT_DOUBLE_EQ(RepeatEventsFrac(100, 100), 0.0);
  EXPECT_DOUBLE_EQ(RepeatEventsFrac(0, 0), 0.0);
}

TEST(DerivedMetrics, NsPerEvent) {
  EXPECT_DOUBLE_EQ(NsPerEvent(2.0, 1'000'000'000), 2.0);
  EXPECT_DOUBLE_EQ(NsPerEvent(1.5, 0), 0.0);
}

TEST(DerivedMetrics, PoolBusyFrac) {
  EXPECT_DOUBLE_EQ(PoolBusyFrac(8.0, 2.0, 4), 1.0);
  EXPECT_DOUBLE_EQ(PoolBusyFrac(3.0, 2.0, 3), 0.5);
  EXPECT_DOUBLE_EQ(PoolBusyFrac(3.0, 0.0, 4), 0.0);
}

TEST(DerivedMetrics, RowHitRatioPoolsCells) {
  std::vector<CellResult> cells = {WithStats(3, 1), WithStats(0, 4)};
  EXPECT_DOUBLE_EQ(RowHitRatio(cells), 3.0 / 8.0);
  EXPECT_DOUBLE_EQ(RowHitRatio({CellResult{}}), 0.0);
}

TEST(DerivedMetrics, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

// ------------------------------------------------------------------- specs

TEST(Specs, SeedReachesEveryCell) {
  for (const std::string& w : WorkloadNames()) {
    for (std::uint64_t seed : {0ull, 7ull, 123456789ull}) {
      SweepSpec spec = BuildSpec(w, seed);
      ASSERT_FALSE(spec.cells.empty()) << w;
      for (const CellSpec& c : spec.cells) EXPECT_EQ(c.seed, seed) << w;
    }
  }
}

TEST(Specs, CellCounts) {
  EXPECT_EQ(BuildSpec("scheme-grid", 1).cells.size(), 40u);
  EXPECT_EQ(BuildSpec("compiled-full", 1).cells.size(), 20u);
  EXPECT_EQ(BuildSpec("sync-mesh", 1).cells.size(), 21u);
  EXPECT_THROW(BuildSpec("no-such-workload", 1), std::invalid_argument);
}

TEST(Specs, OnlySchemeGridRepeatsRuns) {
  // Per kernel, scheme-grid's ten cells make 25 Machine runs of which 12
  // are distinct; the other workloads never repeat a run, so their
  // metrics.repeat_events_frac is 0 by construction.
  SweepSpec grid = BuildSpec("scheme-grid", 1);
  EXPECT_EQ(TotalRuns(grid), 100u);
  EXPECT_EQ(DistinctRuns(grid).size(), 48u);
  for (const char* w : {"compiled-full", "sync-mesh"}) {
    SweepSpec spec = BuildSpec(w, 1);
    EXPECT_EQ(TotalRuns(spec), DistinctRuns(spec).size()) << w;
  }
}

TEST(Specs, RepeatEventsFracIsZeroWithoutRepeatedRuns) {
  SweepSpec spec;
  for (const char* w : {"swim", "mgrid"}) {
    CellSpec c;
    c.workload = w;
    c.scale = ndc::workloads::Scale::kTest;
    c.scheme = Scheme::kAlgorithm2;
    spec.cells.push_back(c);
  }
  ASSERT_EQ(TotalRuns(spec), DistinctRuns(spec).size());
  ndc::harness::SweepResult res = ndc::harness::RunSweep(spec, Cold(2));
  ProbeResult probe = RunProbes(spec, nullptr);
  ASSERT_GT(res.summary.sim_events, 0u);
  EXPECT_EQ(probe.DistinctEvents(), res.summary.sim_events);
  EXPECT_DOUBLE_EQ(RepeatEventsFrac(probe.DistinctEvents(), res.summary.sim_events), 0.0);
}

// ------------------------------------------------------------------- names

TEST(Names, WorkloadAndMetricNamesMatchPattern) {
  EXPECT_TRUE(ValidName("ndc.run_ms.policy"));
  EXPECT_TRUE(ValidName("scheme-grid"));
  EXPECT_FALSE(ValidName(""));
  EXPECT_FALSE(ValidName("a b"));
  EXPECT_FALSE(ValidName("noc/packets"));

  for (const std::string& w : WorkloadNames()) EXPECT_TRUE(ValidName(w)) << w;
  std::set<std::string> seen;
  for (const auto& list : {EndToEndMetrics({}), EmptyLayerMetrics()}) {
    for (const Metric& m : list) {
      EXPECT_TRUE(ValidName(m.name)) << m.name;
      EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
    }
  }
}

std::vector<std::string> ManifestNames(const json::Value& manifest, const char* key) {
  std::vector<std::string> out;
  const json::Value* list = manifest.Find(key);
  if (list == nullptr) return out;
  for (const json::Value& e : list->arr) {
    const json::Value* name = e.Find("name");
    if (name != nullptr) out.push_back(name->str);
  }
  return out;
}

TEST(Names, MatchBenchmarkManifest) {
  json::Value manifest;
  std::string err;
  ASSERT_TRUE(json::Parse(ReadFile(PERFBENCH_MANIFEST), &manifest, &err)) << err;

  EXPECT_EQ(ManifestNames(manifest, "workloads"), WorkloadNames());

  std::vector<std::string> e2e;
  for (const Metric& m : EndToEndMetrics({})) e2e.push_back(m.name);
  EXPECT_EQ(ManifestNames(manifest, "end_to_end"), e2e);

  std::vector<std::string> layers;
  for (const Metric& m : EmptyLayerMetrics()) layers.push_back(m.name);
  EXPECT_EQ(ManifestNames(manifest, "per_layer"), layers);
}

// ------------------------------------------------------ digests, reference

TEST(Reference, OneCounterPerturbationIsDetected) {
  SweepSpec spec = SmallSpec(1);
  ndc::harness::SweepResult res = ndc::harness::RunSweep(spec, Cold(2));
  std::vector<std::string> reference;
  for (const CellResult& c : res.cells) reference.push_back(CellDigest(c));

  std::vector<CellResult> cells = res.cells;
  ASSERT_GT(cells[2].Stat("noc.packets"), 0u);
  cells[2].stats["noc.packets"] += 1;
  std::vector<std::string> digests;
  for (const CellResult& c : cells) digests.push_back(CellDigest(c));

  std::vector<bool> same = DigestFailures(reference, reference);
  std::vector<bool> bad = DigestFailures(digests, reference);
  EXPECT_EQ(std::count(same.begin(), same.end(), true), 0);
  EXPECT_EQ(std::count(bad.begin(), bad.end(), true), 1);
  EXPECT_TRUE(bad[2]);
  EXPECT_NE(SweepDigest(digests), SweepDigest(reference));
}

/// Digests of `n` cells that differ in one counter, offset by `bump`.
std::vector<std::string> CounterDigests(std::size_t n, std::uint64_t bump) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n; ++i) {
    CellResult c;
    c.stats["noc.packets"] = 100 + i + bump;
    out.push_back(CellDigest(c));
  }
  return out;
}

double PassFrac(const RepetitionCheck& check) {
  EndToEndInputs in;
  in.attempted = check.attempted();
  in.failed = check.failed();
  return EndToEndMetrics(in).back().value;
}

TEST(Reference, PerturbedReferenceFailsEveryRepetition) {
  // Every cell's reference is one counter off: each of the five
  // repetitions repeats the same wrong results and must fail in full.
  std::vector<std::string> reference = CounterDigests(4, 1);
  RepetitionCheck check(&reference);
  for (int rep = 0; rep < 5; ++rep) {
    check.Add(CounterDigests(4, 0), 1000, {false, false, false, false});
  }
  EXPECT_EQ(check.attempted(), 20u);
  EXPECT_EQ(check.failed(), 20u);
  EXPECT_EQ(EndToEndMetrics({}).back().name, "cell_pass_frac");
  EXPECT_DOUBLE_EQ(PassFrac(check), 0.0);

  RepetitionCheck good(&reference);
  for (int rep = 0; rep < 5; ++rep) good.Add(reference, 1000, {false, false, false, false});
  EXPECT_EQ(good.failed(), 0u);
  EXPECT_DOUBLE_EQ(PassFrac(good), 1.0);
}

TEST(Reference, LaterRepetitionsMustRepeatTheFirst) {
  RepetitionCheck check(nullptr);  // no reference kept for this seed
  std::vector<std::string> digests = CounterDigests(4, 0);
  check.Add(digests, 1000, {false, false, false, false});
  std::vector<std::string> changed = digests;
  changed[1] = CounterDigests(4, 7)[1];
  check.Add(changed, 1000, {false, false, false, false});  // one cell differs
  check.Add(digests, 999, {false, false, false, false});   // event count differs
  check.Add(digests, 1000, {false, false, true, false});   // a sanity failure
  EXPECT_EQ(check.attempted(), 16u);
  EXPECT_EQ(check.failed(), 1u + 4u + 1u);
  EXPECT_EQ(check.first(), digests);
  EXPECT_EQ(check.first_events(), 1000u);
}

TEST(Reference, CommittedFileCoversTheDefaultSeed) {
  Reference ref;
  std::string err;
  ASSERT_TRUE(ParseReference(ReadFile(PERFBENCH_REFERENCE), &ref, &err)) << err;
  for (const std::string& w : WorkloadNames()) {
    ASSERT_TRUE(ref.count(w)) << w;
    ASSERT_TRUE(ref[w].count(1)) << w;
    EXPECT_EQ(ref[w][1].size(), BuildSpec(w, 1).cells.size()) << w;
  }
}

TEST(Reference, RoundTripsAndRejectsMalformedFiles) {
  Reference ref;
  ref["scheme-grid"][1] = {"0123456789abcdef", "fedcba9876543210"};
  ref["sync-mesh"][7] = {"00000000000000ff"};
  Reference back;
  std::string err;
  ASSERT_TRUE(ParseReference(DumpReference(ref), &back, &err)) << err;
  EXPECT_EQ(back, ref);

  for (const char* bad : {"", "{}", "{\"workloads\": []}",
                          "{\"workloads\": {\"w\": {\"x1\": []}}}",
                          "{\"workloads\": {\"w\": {\"1\": [3]}}}"}) {
    EXPECT_FALSE(ParseReference(bad, &back, &err)) << bad;
  }
}

TEST(Reference, SanityChecksFlagBrokenCells) {
  SweepSpec spec = SmallSpec(1);
  ndc::harness::SweepResult res = ndc::harness::RunSweep(spec, Cold(2));
  std::vector<bool> ok = SanityFailures(spec.cells, res.cells);
  for (std::size_t i = 0; i < ok.size(); ++i) EXPECT_FALSE(ok[i]) << i;

  std::vector<CellResult> cells = res.cells;
  cells[0].fallbacks += 1;             // an offload that resolved twice
  cells[1].baseline_makespan += 1;     // disagrees with cell 0's baseline
  std::vector<bool> bad = SanityFailures(spec.cells, cells);
  EXPECT_TRUE(bad[0]);
  EXPECT_TRUE(bad[1]);
  EXPECT_FALSE(bad[2]);
}

// ------------------------------------------------------------------ probes

TEST(Probes, RebuildEverySweepCellExactly) {
  SweepSpec spec = SmallSpec(3);
  ndc::harness::SweepResult res = ndc::harness::RunSweep(spec, Cold(2));
  SpanRecorder spans;
  ProbeResult probe = RunProbes(spec, &spans);
  ASSERT_EQ(probe.cells.size(), res.cells.size());
  for (std::size_t i = 0; i < res.cells.size(); ++i) {
    EXPECT_TRUE(probe.cells[i] == res.cells[i]) << spec.cells[i].workload << " "
                                                << spec.cells[i].SchemeLabel();
  }
  EXPECT_EQ(probe.distinct_runs, DistinctRuns(spec).size());
  EXPECT_EQ(probe.conservation_violations, 0u);
  EXPECT_EQ(probe.verify_errors, 0u);
  EXPECT_EQ(probe.faulty, std::vector<bool>(spec.cells.size(), false));
  // swim: baseline, observe, four policies, two compiled; the sync cell:
  // one baseline.
  EXPECT_EQ(spans.totals().at("ndc.setup_ms").count, 9u);
  EXPECT_EQ(spans.totals().at("compiler.compile_ms").count, 2u);
  EXPECT_EQ(spans.totals().at("workloads.build_ms").count, 2u);
  // Each Machine run is repeated once with the simulator's tracing on.
  EXPECT_EQ(spans.totals().at("obs.run_ms").count, 9u);
  // Oracle and Wait(25%) re-simulate the baseline and the observe run.
  EXPECT_GT(RepeatEventsFrac(probe.DistinctEvents(), res.summary.sim_events), 0.0);
}

TEST(Probes, TraceOverheadComparesObsRunsWithPlainRuns) {
  SpanRecorder spans;
  EXPECT_DOUBLE_EQ(TraceOverheadFrac(spans), 0.0);
  spans.Add("ndc.run_ms.baseline", 60'000'000);
  spans.Add("ndc.run_ms.policy", 40'000'000);
  spans.Add("obs.run_ms", 125'000'000);
  EXPECT_DOUBLE_EQ(TraceOverheadFrac(spans), 0.25);
  { SpanRecorder::Scope s(nullptr, "x"); }  // no recorder: records nothing
}

// ------------------------------------------------------------------ output

TEST(Output, ResultLineIsOneJsonObjectWithTheContractKeys) {
  std::string line =
      ResultLine(true, 40, 0, {{"sweep_s", 1.25, "s"}, {"sim_events", 9e7, "count"}});
  EXPECT_EQ(line.find('\n'), std::string::npos);
  json::Value v;
  std::string err;
  ASSERT_TRUE(json::Parse(line, &v, &err)) << err;
  ASSERT_EQ(v.obj.size(), 4u);
  EXPECT_TRUE(v.Find("correct")->b);
  EXPECT_EQ(v.Find("attempted")->AsU64(), 40u);
  EXPECT_EQ(v.Find("failed")->AsU64(), 0u);
  const json::Value* m = v.Find("metrics")->Find("sweep_s");
  ASSERT_NE(m, nullptr);
  EXPECT_DOUBLE_EQ(m->Find("value")->AsDouble(), 1.25);
  EXPECT_EQ(m->Find("unit")->str, "s");
  EXPECT_EQ(v.Find("metrics")->Find("sim_events")->Find("value")->AsU64(), 90000000u);
}

}  // namespace
}  // namespace perfbench
