#pragma once

#include <memory>
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

/// Everything measured for one (workload, scheme) run.
struct SchemeResult {
  Scheme scheme = Scheme::kBaseline;
  runtime::RunResult run;
  double improvement_pct = 0.0;  ///< vs baseline makespan (positive = faster)
  compiler::CompileReport compile_report;  ///< compiler modes only
};

/// A workload prepared for experiments: baseline + observation runs are
/// cached so that multiple schemes can reuse the profile. The caches can also
/// be seeded with runs simulated elsewhere (AdoptProfiles), which is how a
/// sweep simulates each profile once for all the cells that share it.
class Experiment {
 public:
  Experiment(std::string workload, workloads::Scale scale, arch::ArchConfig cfg,
             std::uint64_t seed = 1);

  const std::string& workload() const { return workload_; }
  const arch::ArchConfig& cfg() const { return cfg_; }

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

  /// Seeds the baseline and observe caches with runs simulated by another
  /// Experiment over the same workload, scale, seed and configuration. A
  /// null pointer leaves that cache as it is. The records are shared, not
  /// copied: policies only read them, so one observe run can serve cells on
  /// several threads.
  void AdoptProfiles(const runtime::RunResult* baseline, const runtime::RunResult* observe);

  /// Runs one scheme and reports improvement vs the baseline.
  SchemeResult Run(Scheme scheme);

  /// Compiles with `opt` and runs the transformed program.
  SchemeResult RunCompiled(compiler::CompileOptions opt);

  /// The traces of the original program (baseline schedule).
  const std::vector<arch::Trace>& BaselineTraces();

  /// Attaches an observation bundle to subsequent Run()/RunCompiled() calls:
  /// the *measured* scheme run is traced (never the cached baseline/observe
  /// profile runs, except that Run(kBaseline) re-simulates fresh so the
  /// baseline itself can be observed). Null detaches.
  void set_obs(obs::Observability* o) { obs_ = o; }

  /// Attaches a fault schedule to subsequent Run()/RunCompiled() calls.
  /// Mirrors set_obs: only the *measured* scheme run is faulted (the cached
  /// baseline/observe profile runs stay pristine, so improvement numbers
  /// compare a faulted run against the healthy baseline — the degradation
  /// curve's y-axis). Each measured run gets a fresh injector built from the
  /// schedule, so repeated runs are identically faulted. Null (or an empty
  /// schedule) detaches.
  void set_faults(const fault::FaultSchedule* s) { faults_ = s; }

  /// Fault report for the most recent faulted measured run.
  bool have_fault_report() const { return have_fault_report_; }
  const fault::ConservationInputs& last_conservation() const { return last_conservation_; }
  const fault::InjectionCounts& last_injections() const { return last_injections_; }

 private:
  /// The one simulation entry point: runs `traces` on a fresh Machine built
  /// from `cfg` and counts the run as `kind`. Machine::Run throws
  /// std::logic_error if the run breaks request conservation; it is
  /// rethrown with the workload and run kind. `with_faults` marks a
  /// measured run, which gets a fresh injector from the attached schedule
  /// and records the fault report.
  runtime::RunResult RunTraces(const arch::ArchConfig& cfg,
                               const std::vector<arch::Trace>& traces,
                               runtime::MachineOptions opts, obs::RunKind kind,
                               bool with_faults = false);

  std::string workload_;
  workloads::Scale scale_;
  arch::ArchConfig cfg_;
  std::uint64_t seed_;
  ir::Program base_program_;
  std::vector<arch::Trace> base_traces_;
  bool have_baseline_ = false;
  runtime::RunResult baseline_;
  bool have_observe_ = false;
  runtime::RunResult observe_;
  obs::Observability* obs_ = nullptr;
  const fault::FaultSchedule* faults_ = nullptr;
  bool have_fault_report_ = false;
  fault::ConservationInputs last_conservation_;
  fault::InjectionCounts last_injections_;
};

/// Percentage improvement of `t` over baseline `base` (positive = faster,
/// the paper's "performance improvement").
double ImprovementPct(sim::Cycle base, sim::Cycle t);

}  // namespace ndc::metrics
