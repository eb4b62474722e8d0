// metrics::Experiment unit tests: result caching semantics, the observe run
// standing in for the baseline, one lowering and one profile per Experiment
// under concurrent callers, ImprovementPct edge cases, the
// cached-program fast path of RunCompiled, and cell-for-cell
// determinism of a parallel harness sweep against a serial one.

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "harness/sweep.hpp"
#include "metrics/experiment.hpp"
#include "obs/phase.hpp"

namespace ndc::metrics {
namespace {

using workloads::Scale;

TEST(Experiment, BaselineIsComputedOnceAndCached) {
  arch::ArchConfig cfg;
  Experiment exp("md", Scale::kTest, cfg);
  const runtime::RunResult& a = exp.Baseline();
  const runtime::RunResult& b = exp.Baseline();
  EXPECT_EQ(&a, &b);  // same object, not a re-run
  EXPECT_GT(a.makespan, 0u);
}

TEST(Experiment, ObserveIsComputedOnceAndCached) {
  arch::ArchConfig cfg;
  Experiment exp("md", Scale::kTest, cfg);
  const runtime::RunResult& a = exp.Observe();
  const runtime::RunResult& b = exp.Observe();
  EXPECT_EQ(&a, &b);
  // Observation mode must not distort timing (Section 4's design point).
  EXPECT_EQ(a.makespan, exp.Baseline().makespan);
}

// A profile-driven scheme takes the baseline makespan from its observe run,
// so Oracle followed by a compiled scheme never simulates the baseline.
TEST(Experiment, ObserveStandsInForTheBaselineRun) {
  if constexpr (!obs::kObsEnabled) GTEST_SKIP() << "run counters need NDC_OBS";
  arch::ArchConfig cfg;
  Experiment exp("md", Scale::kTest, cfg);
  obs::PhaseProfiler::Snapshot before = obs::GlobalPhases().Take();
  SchemeResult oracle = exp.Run(Scheme::kOracle);
  compiler::CompileOptions opt;
  opt.mode = compiler::Mode::kAlgorithm2;
  SchemeResult alg2 = exp.RunCompiled(opt);
  std::map<std::string, std::uint64_t> runs = obs::GlobalPhases().Take().RunsSince(before);
  EXPECT_EQ(runs.at("baseline"), 0u);
  EXPECT_EQ(runs.at("observe"), 1u);
  EXPECT_EQ(runs.at("policy"), 1u);
  EXPECT_EQ(runs.at("compiled"), 1u);

  Experiment fresh("md", Scale::kTest, cfg);
  EXPECT_EQ(exp.BaselineMakespan(), fresh.Baseline().makespan);
  EXPECT_DOUBLE_EQ(oracle.improvement_pct,
                   ImprovementPct(fresh.Baseline().makespan, oracle.run.makespan));
  EXPECT_DOUBLE_EQ(alg2.improvement_pct,
                   ImprovementPct(fresh.Baseline().makespan, alg2.run.makespan));
}

std::uint64_t Lowerings() { return obs::GlobalPhases().count(obs::Phase::kLowerTraces); }

// The base traces are lowered at most once per Experiment, even when several
// threads ask at once. The profile runs reuse them but never fill the cache,
// and a measured run lowers before it asks for its profile, so a lone
// Oracle cell lowers once.
TEST(Experiment, LowersTheBaseTracesOnce) {
  if constexpr (!obs::kObsEnabled) GTEST_SKIP() << "phase counters need NDC_OBS";
  arch::ArchConfig cfg;
  Experiment exp("md", Scale::kTest, cfg);
  std::uint64_t before = Lowerings();
  (void)exp.Observe();
  (void)exp.Baseline();
  EXPECT_EQ(Lowerings() - before, 2u);  // one private copy per profile run

  std::vector<const std::vector<arch::Trace>*> seen(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&, t] { seen[t] = &exp.BaselineTraces(); });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(Lowerings() - before, 3u);
  for (const auto* traces : seen) EXPECT_EQ(traces, seen.front());

  Experiment lone("md", Scale::kTest, cfg);
  before = Lowerings();
  (void)lone.Run(Scheme::kOracle);
  EXPECT_EQ(Lowerings() - before, 1u);
}

// Cells of one profile group run concurrently on one Experiment: the first
// to need the observe run simulates it, the others wait for it, and every
// result equals the one from a private Experiment.
TEST(Experiment, ConcurrentRunsShareOneProfile) {
  if constexpr (!obs::kObsEnabled) GTEST_SKIP() << "run counters need NDC_OBS";
  arch::ArchConfig cfg;
  // Only profile-driven schemes: a Default run finishing before the observe
  // run would take its makespan from a baseline run instead.
  const Scheme schemes[] = {Scheme::kOracle, Scheme::kWait5, Scheme::kWait25, Scheme::kWait50};
  Experiment shared("fft", Scale::kTest, cfg);
  std::vector<SchemeResult> got(std::size(schemes));
  obs::PhaseProfiler::Snapshot before = obs::GlobalPhases().Take();
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < got.size(); ++i) {
    threads.emplace_back([&, i] { got[i] = shared.Run(schemes[i]); });
  }
  for (std::thread& t : threads) t.join();
  std::map<std::string, std::uint64_t> runs = obs::GlobalPhases().Take().RunsSince(before);
  EXPECT_EQ(runs.at("observe"), 1u);
  EXPECT_EQ(runs.at("baseline"), 0u);
  EXPECT_EQ(runs.at("policy"), got.size());

  for (std::size_t i = 0; i < got.size(); ++i) {
    Experiment alone("fft", Scale::kTest, cfg);
    SchemeResult want = alone.Run(schemes[i]);
    EXPECT_EQ(got[i].run.makespan, want.run.makespan) << SchemeName(schemes[i]);
    EXPECT_EQ(got[i].run.stats.all(), want.run.stats.all()) << SchemeName(schemes[i]);
    EXPECT_DOUBLE_EQ(got[i].improvement_pct, want.improvement_pct) << SchemeName(schemes[i]);
  }
}

TEST(ImprovementPct, ZeroBaselineYieldsZeroNotDivisionByZero) {
  EXPECT_EQ(ImprovementPct(0, 100), 0.0);
  EXPECT_EQ(ImprovementPct(0, 0), 0.0);
}

TEST(ImprovementPct, SignConventions) {
  EXPECT_DOUBLE_EQ(ImprovementPct(200, 100), 50.0);   // faster = positive
  EXPECT_DOUBLE_EQ(ImprovementPct(100, 150), -50.0);  // slower = negative
  EXPECT_DOUBLE_EQ(ImprovementPct(100, 100), 0.0);
}

// RunCompiled reuses the workload program built in the constructor instead
// of regenerating it; the compiled result must match a fresh Experiment's.
TEST(Experiment, RunCompiledMatchesFreshExperiment) {
  arch::ArchConfig cfg;
  compiler::CompileOptions opt;
  opt.mode = compiler::Mode::kAlgorithm1;

  Experiment reused("md", Scale::kTest, cfg);
  (void)reused.Baseline();  // populate caches before compiling
  SchemeResult a = reused.RunCompiled(opt);

  Experiment fresh("md", Scale::kTest, cfg);
  SchemeResult b = fresh.RunCompiled(opt);

  EXPECT_EQ(a.run.makespan, b.run.makespan);
  EXPECT_EQ(a.run.ndc_success, b.run.ndc_success);
  EXPECT_EQ(a.compile_report.planned, b.compile_report.planned);
  EXPECT_EQ(a.compile_report.chains, b.compile_report.chains);
}

// Consecutive RunCompiled calls on one Experiment see the same pristine
// program (Compile must not leak mutations into later calls).
TEST(Experiment, RunCompiledIsRepeatable) {
  arch::ArchConfig cfg;
  compiler::CompileOptions opt;
  opt.mode = compiler::Mode::kAlgorithm2;
  Experiment exp("swim", Scale::kTest, cfg);
  SchemeResult a = exp.RunCompiled(opt);
  SchemeResult b = exp.RunCompiled(opt);
  EXPECT_EQ(a.run.makespan, b.run.makespan);
  EXPECT_EQ(a.compile_report.planned, b.compile_report.planned);
}

// The harness determinism contract: a 4-thread sweep produces results
// cell-for-cell identical to the serial sweep of the same spec.
TEST(Experiment, ParallelSweepMatchesSerialSweep) {
  harness::SweepSpec spec;
  spec.figure = "determinism";
  for (const char* w : {"md", "swim", "fft"}) {
    for (Scheme s : {Scheme::kBaseline, Scheme::kOracle, Scheme::kAlgorithm1}) {
      harness::CellSpec cell;
      cell.workload = w;
      cell.scale = Scale::kTest;
      cell.scheme = s;
      spec.cells.push_back(cell);
    }
  }

  harness::SweepOptions serial;
  serial.jobs = 1;
  serial.use_cache = false;
  harness::SweepOptions parallel = serial;
  parallel.jobs = 4;

  harness::SweepResult a = harness::RunSweep(spec, serial);
  harness::SweepResult b = harness::RunSweep(spec, parallel);
  ASSERT_EQ(a.cells.size(), spec.cells.size());
  ASSERT_EQ(b.cells.size(), spec.cells.size());
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    EXPECT_TRUE(a.cells[i] == b.cells[i])
        << spec.cells[i].workload << "/" << spec.cells[i].SchemeLabel();
  }
}

}  // namespace
}  // namespace ndc::metrics
