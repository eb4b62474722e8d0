// metrics::Experiment unit tests: result caching semantics, the observe run
// standing in for the baseline, ImprovementPct edge cases, the
// cached-program fast path of RunCompiled, and cell-for-cell
// determinism of a parallel harness sweep against a serial one.

#include <gtest/gtest.h>

#include <map>
#include <string>

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
