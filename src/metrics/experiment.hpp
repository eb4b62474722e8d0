#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "compiler/pipeline.hpp"
#include "fault/fault.hpp"
#include "ndc/machine.hpp"
#include "ndc/policy.hpp"
#include "obs/obs.hpp"
#include "obs/phase.hpp"
#include "workloads/workloads.hpp"

namespace ndc::metrics {

/// The hardware-side NDC schemes of Figure 4 (plus the compiler modes).
enum class Scheme {
  kBaseline,   ///< conventional execution (the normalization base)
  kDefault,    ///< offload always, wait until the partner arrives
  kOracle,     ///< profile-guided optimal decisions (Section 4.4)
  kWait5,      ///< wait at most 5% of the arrival window
  kWait10,
  kWait25,
  kWait50,
  kLastWait,   ///< last-value arrival-window predictor
  kMarkov,     ///< Markov-chain arrival-window predictor (Section 4.4 text)
  kAlgorithm1, ///< compiler scheme 1 (Section 5.2)
  kAlgorithm2, ///< compiler scheme 2 (Section 5.3)
};

const char* SchemeName(Scheme s);

/// True for the schemes whose policy is built from the observe run's
/// records (Oracle and Wait(x%)).
bool UsesObserveRun(Scheme s);

/// A faulted run's end-of-run conservation counters and injections.
struct FaultReport {
  fault::ConservationInputs conservation;
  fault::InjectionCounts injections;
};

/// Everything measured for one (workload, scheme) run.
struct SchemeResult {
  Scheme scheme = Scheme::kBaseline;
  runtime::RunResult run;
  double improvement_pct = 0.0;  ///< vs baseline makespan (positive = faster)
  compiler::CompileReport compile_report;  ///< compiler modes only
  /// Set iff the measured run executed under a non-empty fault schedule.
  std::optional<FaultReport> fault_report;
};

/// What one Run()/RunCompiled() call attaches to its *measured* run. The
/// cached profile runs are never traced or faulted, so a faulted run is
/// compared against the healthy baseline (the degradation curve's y-axis);
/// Run(kBaseline) re-simulates when either is set. Each faulted run gets a
/// fresh injector, so repeated runs are identically faulted.
struct RunOptions {
  obs::Observability* obs = nullptr;
  const fault::FaultSchedule* faults = nullptr;  ///< null or empty: fault-free

  bool Faulted() const { return faults != nullptr && !faults->Empty(); }
};

/// A workload prepared for experiments: the program is built once, and the
/// base traces and the baseline and observe runs are cached for every scheme
/// to reuse. Every method may be called from several threads at once, which
/// is how a sweep's cells share one profile.
class Experiment {
 public:
  Experiment(std::string workload, workloads::Scale scale, arch::ArchConfig cfg,
             std::uint64_t seed = 1);

  /// Baseline (conventional) run; cached.
  const runtime::RunResult& Baseline();

  /// Observation run over the original program (Section 4 quantification);
  /// cached. Timing-identical to the baseline.
  const runtime::RunResult& Observe();

  /// The baseline makespan. Taken from the observe run when that run is
  /// cached (observe is timing-identical to the baseline), so a
  /// profile-driven scheme never simulates the baseline as well; otherwise
  /// Baseline().makespan.
  sim::Cycle BaselineMakespan();

  /// Runs one scheme and reports improvement vs the baseline.
  SchemeResult Run(Scheme scheme, const RunOptions& ro = {});

  /// Compiles with `opt` and runs the transformed program.
  SchemeResult RunCompiled(compiler::CompileOptions opt, const RunOptions& ro = {});

  /// The traces of the original program (baseline schedule), lowered at
  /// most once. Profile runs reuse but never fill this cache, so a sweep's
  /// shared profiles hold no traces before a cell needs them.
  const std::vector<arch::Trace>& BaselineTraces();

 private:
  /// The one simulation entry point: runs `traces` on a fresh Machine built
  /// from `cfg` and counts the run as `kind`. Machine::Run throws
  /// std::logic_error if the run breaks request conservation; it is
  /// rethrown with the workload and run kind. A faulted run's report is
  /// stored in `report`.
  runtime::RunResult RunTraces(const arch::ArchConfig& cfg,
                               const std::vector<arch::Trace>& traces,
                               runtime::MachineOptions opts, obs::RunKind kind,
                               const RunOptions& ro = {},
                               std::optional<FaultReport>* report = nullptr) const;

  /// A profile run over the cached traces if a measured run has lowered
  /// them, else over a copy that dies with the run.
  runtime::RunResult RunProfile(runtime::MachineOptions opts, obs::RunKind kind);

  std::vector<arch::Trace> LowerBase() const;

  std::string workload_;
  workloads::Scale scale_;
  arch::ArchConfig cfg_;
  std::uint64_t seed_;
  ir::Program base_program_;
  std::once_flag traces_once_, baseline_once_, observe_once_;
  std::atomic<bool> have_traces_{false}, have_observe_{false};
  std::vector<arch::Trace> base_traces_;
  runtime::RunResult baseline_;
  runtime::RunResult observe_;
};

/// Percentage improvement of `t` over baseline `base` (positive = faster,
/// the paper's "performance improvement").
double ImprovementPct(sim::Cycle base, sim::Cycle t);

}  // namespace ndc::metrics
