#include "metrics/experiment.hpp"

#include <stdexcept>

#include "compiler/codegen.hpp"
#include "obs/phase.hpp"
#include "workloads/sharded.hpp"

namespace ndc::metrics {

const char* SchemeName(Scheme s) {
  switch (s) {
    case Scheme::kBaseline: return "Baseline";
    case Scheme::kDefault: return "Default";
    case Scheme::kOracle: return "Oracle";
    case Scheme::kWait5: return "Wait(5%)";
    case Scheme::kWait10: return "Wait(10%)";
    case Scheme::kWait25: return "Wait(25%)";
    case Scheme::kWait50: return "Wait(50%)";
    case Scheme::kLastWait: return "LastWait";
    case Scheme::kMarkov: return "Markov";
    case Scheme::kAlgorithm1: return "Algorithm-1";
    case Scheme::kAlgorithm2: return "Algorithm-2";
  }
  return "?";
}

bool UsesObserveRun(Scheme s) {
  return s == Scheme::kOracle || s == Scheme::kWait5 || s == Scheme::kWait10 ||
         s == Scheme::kWait25 || s == Scheme::kWait50;
}

double ImprovementPct(sim::Cycle base, sim::Cycle t) {
  if (base == 0) return 0.0;
  return (static_cast<double>(base) - static_cast<double>(t)) / static_cast<double>(base) *
         100.0;
}

Experiment::Experiment(std::string workload, workloads::Scale scale, arch::ArchConfig cfg,
                       std::uint64_t seed)
    : workload_(std::move(workload)), scale_(scale), cfg_(cfg), seed_(seed) {
  obs::ScopedPhase phase(obs::Phase::kBuildWorkload);
  // shard.* scenarios are sized by the machine itself (one shard per core)
  // and pass through the sharded generator's classifier gate.
  base_program_ = workloads::IsShardedScenario(workload_)
                      ? workloads::BuildShardedWorkload(workload_, scale_,
                                                        cfg_.num_nodes(), seed_)
                      : workloads::BuildWorkload(workload_, scale_, seed_);
}

const std::vector<arch::Trace>& Experiment::BaselineTraces() {
  if (base_traces_.empty()) {
    obs::ScopedPhase phase(obs::Phase::kLowerTraces);
    base_traces_ = compiler::Lower(base_program_, cfg_.num_nodes(), &cfg_).traces;
  }
  return base_traces_;
}

runtime::RunResult Experiment::RunTraces(const arch::ArchConfig& cfg,
                                         const std::vector<arch::Trace>& traces,
                                         runtime::MachineOptions opts, obs::RunKind kind,
                                         bool with_faults) {
  obs::ScopedPhase phase(obs::Phase::kSimulate);
  // A fresh injector per measured run: its RNG restarts from the schedule
  // seed, so the same (workload, schedule) pair is identically faulted every
  // time it is simulated.
  std::unique_ptr<fault::FaultInjector> inj;
  if (with_faults && faults_ != nullptr && !faults_->Empty()) {
    inj = std::make_unique<fault::FaultInjector>(*faults_);
    opts.faults = inj.get();
  }
  runtime::Machine m(cfg, opts);
  m.LoadProgram(traces);
  runtime::RunResult r;
  try {
    r = m.Run();
  } catch (const std::logic_error& e) {  // e.g. the run broke request conservation
    throw std::logic_error(workload_ + ": " + obs::RunKindName(kind) + " run: " + e.what());
  }
  if (inj != nullptr) {
    last_conservation_ = m.GatherConservation();
    last_injections_ = inj->counts();
    have_fault_report_ = true;
  }
  if constexpr (obs::kObsEnabled) obs::GlobalPhases().AddRun(kind, r.events);
  return r;
}

const runtime::RunResult& Experiment::Baseline() {
  if (!have_baseline_) {
    baseline_ = RunTraces(cfg_, BaselineTraces(), {}, obs::RunKind::kBaseline);
    have_baseline_ = true;
  }
  return baseline_;
}

const runtime::RunResult& Experiment::Observe() {
  if (!have_observe_) {
    runtime::MachineOptions opts;
    opts.observe = true;
    observe_ = RunTraces(cfg_, BaselineTraces(), opts, obs::RunKind::kObserve);
    have_observe_ = true;
  }
  return observe_;
}

sim::Cycle Experiment::BaselineMakespan() {
  return have_observe_ ? observe_.makespan : Baseline().makespan;
}

void Experiment::AdoptProfiles(const runtime::RunResult* baseline,
                               const runtime::RunResult* observe) {
  if (baseline != nullptr) {
    baseline_ = *baseline;
    have_baseline_ = true;
  }
  if (observe != nullptr) {
    observe_ = *observe;
    have_observe_ = true;
  }
}

SchemeResult Experiment::Run(Scheme scheme) {
  SchemeResult out;
  out.scheme = scheme;

  switch (scheme) {
    case Scheme::kBaseline:
      if (obs_ != nullptr || faults_ != nullptr) {
        // The cached baseline carries no observation or fault data;
        // re-simulate so the requested trace/audit/faults reflect this very
        // scheme.
        runtime::MachineOptions bopts;
        bopts.obs = obs_;
        out.run = RunTraces(cfg_, BaselineTraces(), bopts, obs::RunKind::kBaseline,
                            /*with_faults=*/true);
      } else {
        out.run = Baseline();
      }
      out.improvement_pct = ImprovementPct(BaselineMakespan(), out.run.makespan);
      return out;
    case Scheme::kAlgorithm1: {
      compiler::CompileOptions opt;
      opt.mode = compiler::Mode::kAlgorithm1;
      return RunCompiled(opt);
    }
    case Scheme::kAlgorithm2: {
      compiler::CompileOptions opt;
      opt.mode = compiler::Mode::kAlgorithm2;
      return RunCompiled(opt);
    }
    default:
      break;
  }

  std::unique_ptr<runtime::Policy> policy;
  switch (scheme) {
    case Scheme::kDefault:
      policy = std::make_unique<runtime::AlwaysWaitPolicy>(cfg_);
      break;
    case Scheme::kOracle:
      policy = std::make_unique<runtime::OraclePolicy>(cfg_, *Observe().records);
      break;
    case Scheme::kWait5:
      policy = std::make_unique<runtime::FractionWaitPolicy>(cfg_, *Observe().records, 0.05);
      break;
    case Scheme::kWait10:
      policy = std::make_unique<runtime::FractionWaitPolicy>(cfg_, *Observe().records, 0.10);
      break;
    case Scheme::kWait25:
      policy = std::make_unique<runtime::FractionWaitPolicy>(cfg_, *Observe().records, 0.25);
      break;
    case Scheme::kWait50:
      policy = std::make_unique<runtime::FractionWaitPolicy>(cfg_, *Observe().records, 0.50);
      break;
    case Scheme::kLastWait:
      policy = std::make_unique<runtime::LastWaitPolicy>(cfg_);
      break;
    case Scheme::kMarkov:
      policy = std::make_unique<runtime::MarkovWaitPolicy>(cfg_);
      break;
    default:
      break;
  }
  runtime::MachineOptions opts;
  opts.policy = policy.get();
  opts.obs = obs_;
  out.run = RunTraces(cfg_, BaselineTraces(), opts, obs::RunKind::kPolicy,
                      /*with_faults=*/true);
  out.improvement_pct = ImprovementPct(BaselineMakespan(), out.run.makespan);
  return out;
}

SchemeResult Experiment::RunCompiled(compiler::CompileOptions opt) {
  SchemeResult out;
  out.scheme = opt.mode == compiler::Mode::kAlgorithm2 ? Scheme::kAlgorithm2
                                                       : Scheme::kAlgorithm1;
  // Compile mutates its input program, so copy the cached build instead of
  // regenerating the workload from scratch.
  ir::Program prog = base_program_;
  arch::ArchConfig cfg = cfg_;
  cfg.allow_reroute = opt.allow_reroute;
  cfg.control_register = opt.control_register;
  compiler::ArchDescription ad(cfg);
  std::vector<arch::Trace> traces;
  {
    obs::ScopedPhase phase(obs::Phase::kCompile);
    out.compile_report = compiler::Compile(prog, ad, opt);
    traces = compiler::Lower(prog, cfg.num_nodes(), &cfg).traces;
  }
  runtime::MachineOptions mopts;
  mopts.obs = obs_;
  out.run = RunTraces(cfg, traces, mopts, obs::RunKind::kCompiled, /*with_faults=*/true);
  out.improvement_pct = ImprovementPct(BaselineMakespan(), out.run.makespan);
  return out;
}

}  // namespace ndc::metrics
