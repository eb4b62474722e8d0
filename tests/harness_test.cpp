// src/harness unit tests: the JSON codec, cache-key semantics, CellResult
// round-tripping, the on-disk result cache, ParallelFor, the warm-sweep
// zero-simulation guarantee, profile runs shared across sweep cells, and
// the figure registry.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness/cache.hpp"
#include "harness/figures.hpp"
#include "harness/pool.hpp"
#include "harness/sweep.hpp"
#include "json/json.hpp"
#include "obs/enabled.hpp"

namespace ndc::harness {
namespace {

// --------------------------------------------------------------- json ---

TEST(Json, DumpIsDeterministicAndParsesBack) {
  json::Value v = json::Value::Object();
  v.obj["b"] = json::Value::Int(42);
  v.obj["a"] = json::Value::Str("x\"y\n");
  v.obj["c"] = json::Value::Array();
  v.obj["c"].arr.push_back(json::Value::Bool(true));
  v.obj["c"].arr.push_back(json::Value::Double(1.5));
  v.obj["c"].arr.push_back(json::Value::Null());

  std::string s = json::Dump(v);
  EXPECT_EQ(s, "{\"a\":\"x\\\"y\\n\",\"b\":42,\"c\":[true,1.5,null]}");

  json::Value back;
  ASSERT_TRUE(json::Parse(s, &back));
  EXPECT_EQ(json::Dump(back), s);
}

TEST(Json, RejectsMalformedInput) {
  json::Value v;
  EXPECT_FALSE(json::Parse("{\"a\":}", &v));
  EXPECT_FALSE(json::Parse("[1,2", &v));
  EXPECT_FALSE(json::Parse("{} trailing", &v));
  EXPECT_FALSE(json::Parse("", &v));
  // A number token must convert in full: no sign-only, dot-only or
  // truncated-prefix readings.
  for (const char* bad : {"{\"a\":+}", "{\"a\":-}", "{\"a\":.}", "{\"a\":1-2}",
                          "{\"a\":7e}", "{\"a\":3.0.0}"}) {
    EXPECT_FALSE(json::Parse(bad, &v)) << bad;
  }
  EXPECT_FALSE(json::Parse("99999999999999999999", &v));  // overflows uint64
  EXPECT_FALSE(json::Parse("{\"a\":1,\"a\":2}", &v));     // duplicate key
  EXPECT_FALSE(json::Parse("\"\\u00e9\"", &v));           // \u above 0x7f
  EXPECT_FALSE(json::Parse(std::string(10000, '['), &v));  // nesting bound
}

TEST(Json, EscapeRoundTripsEveryByte) {
  std::string all;
  for (int c = 1; c < 256; ++c) all += static_cast<char>(c);
  EXPECT_EQ(json::Escape("\b\f\x01\xc3\xa9"), "\\b\\f\\u0001\xc3\xa9");
  json::Value back;
  ASSERT_TRUE(json::Parse(json::Dump(json::Value::Str(all)), &back));
  EXPECT_EQ(back.str, all);
}

TEST(Json, RoundTripsLargeIntegersExactly) {
  json::Value v = json::Value::Int(18446744073709551615ull);
  json::Value back;
  ASSERT_TRUE(json::Parse(json::Dump(v), &back));
  EXPECT_EQ(back.AsU64(), 18446744073709551615ull);
}

// --------------------------------------------------------------- keys ---

TEST(CellSpec, KeyIsStableAndSensitiveToSemanticFields) {
  CellSpec a;
  a.workload = "md";
  a.scale = workloads::Scale::kTest;
  a.scheme = metrics::Scheme::kOracle;

  CellSpec b = a;
  EXPECT_EQ(a.Key(), b.Key());

  b.scheme = metrics::Scheme::kAlgorithm1;
  EXPECT_NE(a.Key(), b.Key());

  b = a;
  b.cfg.l2.size_bytes *= 2;
  EXPECT_NE(a.Key(), b.Key());

  b = a;
  b.seed = 7;
  EXPECT_NE(a.Key(), b.Key());
}

// The variant display label is deliberately not hashed: two figures probing
// the same resolved configuration share one cache entry.
TEST(CellSpec, VariantLabelDoesNotChangeTheKey) {
  CellSpec a;
  a.workload = "md";
  a.scale = workloads::Scale::kTest;
  CellSpec b = a;
  b.variant = "default-5x5";
  EXPECT_EQ(a.Key(), b.Key());
}

// ------------------------------------------------------------- results ---

CellResult SampleResult() {
  CellResult r;
  r.makespan = 123456;
  r.baseline_makespan = 234567;
  r.l1_hits = 10;
  r.l1_misses = 3;
  r.l2_hits = 7;
  r.l2_misses = 2;
  r.candidates = 99;
  r.local_l1_skips = 5;
  r.offloads = 42;
  r.ndc_success = 40;
  r.fallbacks = 2;
  r.ndc_at_loc = {4, 3, 2, 1};
  r.chains = 6;
  r.planned = 5;
  r.transforms = 8;
  r.stats["noc.contention_cycles"] = 777;
  r.stats["core.computes"] = 1234;
  return r;
}

TEST(CellResult, JsonRoundTripPreservesEveryField) {
  CellResult r = SampleResult();
  json::Value v = r.ToJson();
  CellResult back;
  ASSERT_TRUE(CellResult::FromJson(v, &back));
  EXPECT_TRUE(r == back);
  EXPECT_EQ(back.Stat("noc.contention_cycles"), 777u);
  EXPECT_EQ(back.Stat("missing.counter"), 0u);
}

TEST(CellResult, ImprovementPctHandlesZeroBaseline) {
  CellResult r;
  r.makespan = 100;
  r.baseline_makespan = 0;
  EXPECT_EQ(r.ImprovementPct(), 0.0);
}

// --------------------------------------------------------------- cache ---

std::string UniqueCacheDir(const char* tag) {
  return testing::TempDir() + "/ndc-harness-test-" + tag;
}

TEST(ResultCache, InsertThenLookupAcrossReopen) {
  std::string dir = UniqueCacheDir("reopen");
  std::remove((dir + "/results.jsonl").c_str());

  CellSpec spec;
  spec.workload = "md";
  spec.scale = workloads::Scale::kTest;
  spec.scheme = metrics::Scheme::kOracle;
  CellResult r = SampleResult();

  {
    ResultCache cache(dir);
    ASSERT_TRUE(cache.ok());
    CellResult out;
    EXPECT_FALSE(cache.Lookup(spec, &out));
    cache.Insert(spec, r);
    EXPECT_TRUE(cache.Lookup(spec, &out));
    EXPECT_TRUE(out == r);
  }
  // A second process (re-open) sees the persisted entry, marked from_cache.
  ResultCache cache(dir);
  EXPECT_EQ(cache.load_errors(), 0u);
  CellResult out;
  ASSERT_TRUE(cache.Lookup(spec, &out));
  EXPECT_TRUE(out.from_cache);
  EXPECT_EQ(out.makespan, r.makespan);
}

TEST(ResultCache, CorruptLinesAreCountedAndSkipped) {
  std::string dir = UniqueCacheDir("corrupt");
  std::remove((dir + "/results.jsonl").c_str());
  {
    ResultCache cache(dir);  // creates the directory
    ASSERT_TRUE(cache.ok());
  }
  std::FILE* f = std::fopen((dir + "/results.jsonl").c_str(), "a");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not json\n{\"key\":\n", f);
  std::fclose(f);

  ResultCache cache(dir);
  EXPECT_EQ(cache.load_errors(), 2u);
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------------- pool ---

TEST(ParallelFor, RunsEveryTaskExactlyOnce) {
  std::atomic<int> counter{0};
  std::vector<std::atomic<int>> per_task(257);
  for (auto& t : per_task) t = 0;
  ParallelFor(4, per_task.size(), [&](std::size_t i) {
    per_task[i].fetch_add(1);
    counter.fetch_add(1);
  });
  EXPECT_EQ(counter.load(), 257);
  for (auto& t : per_task) EXPECT_EQ(t.load(), 1);
}

TEST(ParallelFor, CoversTheFullIndexRange) {
  std::vector<std::atomic<int>> hits(100);
  for (auto& h : hits) h = 0;
  ParallelFor(3, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroIndicesNeverCallsFn) {
  std::atomic<int> calls{0};
  for (int jobs : {1, 4}) ParallelFor(jobs, 0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, MoreJobsThanIndicesRunsEachOnce) {
  std::vector<std::atomic<int>> hits(3);
  for (auto& h : hits) h = 0;
  ParallelFor(16, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, RethrowsAThrowingCallOnTheCallingThread) {
  for (int jobs : {1, 4}) {
    std::atomic<int> calls{0};
    EXPECT_THROW(ParallelFor(jobs, 64,
                             [&](std::size_t i) {
                               calls.fetch_add(1);
                               if (i == 40) throw std::logic_error("cell 40");
                             }),
                 std::logic_error)
        << "jobs=" << jobs;
    EXPECT_GE(calls.load(), 1);
  }
}

TEST(ParallelFor, OneJobRunsInIndexOrderOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool all_on_caller = true;
  ParallelFor(1, 5, [&](std::size_t i) {
    order.push_back(i);
    all_on_caller = all_on_caller && std::this_thread::get_id() == caller;
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(all_on_caller);
}

// --------------------------------------------------------------- sweep ---

SweepSpec SmallSpec() {
  SweepSpec spec;
  spec.figure = "harness-test";
  for (const char* w : {"md", "fft"}) {
    for (metrics::Scheme s : {metrics::Scheme::kBaseline, metrics::Scheme::kOracle}) {
      CellSpec cell;
      cell.workload = w;
      cell.scale = workloads::Scale::kTest;
      cell.scheme = s;
      spec.cells.push_back(cell);
    }
  }
  return spec;
}

TEST(Sweep, WarmRerunPerformsZeroSimulatorInvocations) {
  std::string dir = UniqueCacheDir("warm");
  std::remove((dir + "/results.jsonl").c_str());
  SweepSpec spec = SmallSpec();

  SweepOptions opt;
  opt.jobs = 2;
  opt.cache_dir = dir;

  SweepResult cold = RunSweep(spec, opt);
  EXPECT_EQ(cold.summary.cells_simulated, spec.cells.size());
  EXPECT_EQ(cold.summary.cache_hits, 0u);

  SweepResult warm = RunSweep(spec, opt);
  EXPECT_EQ(warm.summary.cells_simulated, 0u);
  EXPECT_EQ(warm.summary.cache_hits, spec.cells.size());
  ASSERT_EQ(warm.cells.size(), cold.cells.size());
  for (std::size_t i = 0; i < cold.cells.size(); ++i) {
    EXPECT_TRUE(warm.cells[i] == cold.cells[i]) << i;
    EXPECT_TRUE(warm.cells[i].from_cache);
  }
}

TEST(Sweep, UncachedParallelMatchesSerial) {
  SweepSpec spec = SmallSpec();
  SweepOptions serial;
  serial.jobs = 1;
  serial.use_cache = false;
  SweepOptions parallel = serial;
  parallel.jobs = 4;
  SweepResult a = RunSweep(spec, serial);
  SweepResult b = RunSweep(spec, parallel);
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    EXPECT_TRUE(a.cells[i] == b.cells[i]) << i;
  }
}

// ----------------------------------------------------- shared profiles ---

// RunSweep simulates each profile run once for every group of cells that
// shares it. Each cell must still come out exactly as when run alone, at
// any job count.
TEST(Sweep, SharedProfilesMatchCellsRunAlone) {
  using metrics::Scheme;
  SweepSpec spec;
  spec.figure = "shared-profiles";
  auto add = [&](const char* workload, Scheme scheme) -> CellSpec& {
    CellSpec& c = spec.cells.emplace_back();
    c.workload = workload;
    c.scale = workloads::Scale::kTest;
    c.scheme = scheme;
    return c;
  };
  for (const char* w : {"md", "fft"}) {
    add(w, Scheme::kBaseline);
    for (Scheme s : {Scheme::kDefault, Scheme::kOracle, Scheme::kWait5, Scheme::kWait10,
                     Scheme::kWait25, Scheme::kWait50, Scheme::kLastWait, Scheme::kMarkov,
                     Scheme::kAlgorithm1, Scheme::kAlgorithm2}) {
      add(w, s);
    }
  }
  add("md", Scheme::kAlgorithm1).coarse_grain = true;
  {
    fault::StormSpec storm;
    arch::ArchConfig cfg;
    storm.num_links = cfg.num_nodes() * 4;
    storm.num_mcs = cfg.num_mcs;
    storm.banks_per_mc = cfg.MakeAddressMap().banks_per_mc;
    storm.horizon = 6000;
    storm.intensity = 0.5;
    storm.seed = 3;
    add("md", Scheme::kOracle).faults = fault::MakeStorm(storm);
    ASSERT_FALSE(spec.cells.back().faults.Empty());
  }
  for (Scheme s : {Scheme::kOracle, Scheme::kAlgorithm1}) {
    CellSpec& c = add("md", s);
    c.cfg.mesh_width = c.cfg.mesh_height = 6;
  }
  CellSpec& lone = add("fft", Scheme::kDefault);  // a group of one cell
  lone.cfg.mesh_width = lone.cfg.mesh_height = 6;

  std::vector<CellResult> alone;
  for (const CellSpec& c : spec.cells) {
    metrics::Experiment exp(c.workload, c.scale, c.cfg, c.seed);
    alone.push_back(RunCell(c, exp));
  }

  for (int jobs : {1, 4}) {
    SweepOptions opt;
    opt.jobs = jobs;
    opt.use_cache = false;
    SweepResult r = RunSweep(spec, opt);
    ASSERT_EQ(r.cells.size(), alone.size());
    for (std::size_t i = 0; i < alone.size(); ++i) {
      EXPECT_TRUE(r.cells[i] == alone[i]) << "jobs=" << jobs << " cell " << i << " "
                                          << spec.cells[i].workload << "/"
                                          << spec.cells[i].SchemeLabel();
    }
    if constexpr (obs::kObsEnabled) {
      // Per default-config kernel: one observe and one baseline profile run
      // (a Baseline cell is present), eight policy cells and the compiled
      // ones; md adds coarse-grain and the faulted Oracle. The 6x6 md pair
      // shares one observe run; the lone fft cell simulates its own
      // baseline.
      std::map<std::string, std::uint64_t> want = {
          {"baseline", 3}, {"observe", 3}, {"policy", 19}, {"compiled", 6}};
      EXPECT_EQ(r.summary.runs, want) << "jobs=" << jobs;
    }
  }
}

// ------------------------------------------------------------- figures ---

TEST(Figures, RegistryKnowsEveryPaperFigure) {
  for (const char* name : {"fig02", "fig03", "fig04", "fig05", "fig06", "fig13", "fig14",
                           "fig15", "fig16", "fig17", "tab02", "abl", "smoke"}) {
    EXPECT_TRUE(HasFigure(name)) << name;
  }
  EXPECT_FALSE(HasFigure("fig99"));
}

TEST(Figures, ParallelRunRendersTheSameTableAsSerial) {
  FigureOptions opt;
  opt.scale = workloads::Scale::kTest;
  opt.only = "md";
  opt.use_cache = false;

  testing::internal::CaptureStdout();
  opt.jobs = 1;
  ASSERT_EQ(RunFigure("fig04", opt), 0);
  std::string serial = testing::internal::GetCapturedStdout();

  testing::internal::CaptureStdout();
  opt.jobs = 4;
  ASSERT_EQ(RunFigure("fig04", opt), 0);
  std::string parallel = testing::internal::GetCapturedStdout();

  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(Figures, UnknownFigureNameFails) {
  FigureOptions opt;
  EXPECT_EQ(RunFigure("not-a-figure", opt), 2);
}

// A record figure simulates outside RunSweep, but its summary line counts
// its Machine runs the way a sweep's does: fig05 observes ocean and
// radiosity once each.
TEST(Figures, RecordFigureSummaryCountsItsRuns) {
  if constexpr (!obs::kObsEnabled) GTEST_SKIP() << "run counters need NDC_OBS";
  FigureOptions opt;
  opt.scale = workloads::Scale::kTest;
  opt.jobs = 2;
  SweepSummary summary;
  testing::internal::CaptureStdout();
  int rc = RunFigure("fig05", opt, &summary);
  testing::internal::GetCapturedStdout();
  ASSERT_EQ(rc, 0);
  std::map<std::string, std::uint64_t> want = {
      {"baseline", 0}, {"observe", 2}, {"policy", 0}, {"compiled", 0}};
  EXPECT_EQ(summary.runs, want);
  EXPECT_GT(summary.sim_events, 0u);
}

// Reads every regular file under `dir` into a name -> contents map.
std::map<std::string, std::string> SlurpDir(const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    std::ifstream f(e.path());
    std::ostringstream ss;
    ss << f.rdbuf();
    out[e.path().filename().string()] = ss.str();
  }
  return out;
}

// --classify/--export-obs under --jobs=N: cells re-simulate in parallel but
// their classification JSONL stream (stderr) and per-cell summary files are
// buffered and emitted in canonical cell order — byte-identical for any job
// count, run after run.
TEST(Figures, ClassifyExportIsByteStableAcrossJobs) {
  FigureOptions opt;
  opt.scale = workloads::Scale::kTest;
  opt.only = "md";
  opt.use_cache = false;
  opt.classify_window = kDefaultClassifyWindow;

  auto run = [&](int jobs, const char* tag) {
    std::string dir = UniqueCacheDir(tag);
    std::filesystem::remove_all(dir);
    opt.jobs = jobs;
    opt.export_obs = dir;
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    int rc = RunFigure("fig04", opt);
    std::string out = testing::internal::GetCapturedStdout();
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(rc, 0);
    return std::make_tuple(out, err, SlurpDir(dir));
  };

  auto [out1, err1, files1] = run(1, "obs-j1");
  auto [out8a, err8a, files8a] = run(8, "obs-j8a");
  auto [out8b, err8b, files8b] = run(8, "obs-j8b");

  EXPECT_FALSE(err1.empty());
  EXPECT_FALSE(files1.empty());
  EXPECT_EQ(out1, out8a);
  EXPECT_EQ(err1, err8a) << "classification stream must not depend on --jobs";
  EXPECT_EQ(files1, files8a) << "obs summaries must not depend on --jobs";
  EXPECT_EQ(err8a, err8b) << "double run at --jobs=8 must be byte-identical";
  EXPECT_EQ(files8a, files8b);
}

}  // namespace
}  // namespace ndc::harness
