#pragma once

// The benchmark's workloads: each is a cold sweep (result cache off) over a
// SweepSpec built here, plus the list of distinct Machine runs and distinct
// workload programs behind that sweep, which the set-up timer and the
// per-layer probes walk.

#include <cstdint>
#include <string>
#include <vector>

#include "harness/sweep.hpp"

namespace perfbench {

/// Workload names, in the order the benchmark documents them.
const std::vector<std::string>& WorkloadNames();

/// Builds the sweep of workload `name` with every cell at `seed`. Throws
/// std::invalid_argument for an unknown name.
ndc::harness::SweepSpec BuildSpec(const std::string& name, std::uint64_t seed);

/// Worker threads of every timed sweep: 4, or fewer on a smaller host.
int JobCount();

/// The kinds of Machine run a sweep cell performs (metrics::Experiment):
/// every cell simulates its workload's baseline; Oracle and Wait(x%) also
/// simulate the observe profile; hardware schemes run a policy; compiled
/// schemes run the transformed program.
enum class RunKind { kBaseline, kObserve, kPolicy, kCompiled };
inline constexpr int kNumRunKinds = 4;
const char* RunKindName(RunKind k);

/// One Machine run of a cell.
struct RunDesc {
  RunKind kind = RunKind::kBaseline;
  std::size_t cell = 0;  ///< index of the first cell in the spec that needs it
  /// Identity of the run: two runs with equal keys simulate the same thing.
  std::string key;
  /// Identity of the workload program the run simulates.
  std::string program_key;
};

/// Every Machine run the cell performs, in the order RunCell performs them.
std::vector<RunDesc> RunsOfCell(const ndc::harness::SweepSpec& spec, std::size_t cell);

/// The distinct runs behind the sweep, in first-use order.
std::vector<RunDesc> DistinctRuns(const ndc::harness::SweepSpec& spec);

/// Machine runs the sweep performs in total, repeats included.
std::size_t TotalRuns(const ndc::harness::SweepSpec& spec);

/// Index of the first cell of each distinct workload program.
std::vector<std::size_t> DistinctPrograms(const ndc::harness::SweepSpec& spec);

}  // namespace perfbench
