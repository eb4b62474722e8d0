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

std::vector<arch::Trace> Experiment::LowerBase() const {
  obs::ScopedPhase phase(obs::Phase::kLowerTraces);
  return compiler::Lower(base_program_, cfg_.num_nodes(), &cfg_).traces;
}

const std::vector<arch::Trace>& Experiment::BaselineTraces() {
  std::call_once(traces_once_, [&] {
    base_traces_ = LowerBase();
    have_traces_.store(true, std::memory_order_release);
  });
  return base_traces_;
}

runtime::RunResult Experiment::RunTraces(const arch::ArchConfig& cfg,
                                         const std::vector<arch::Trace>& traces,
                                         runtime::MachineOptions opts, obs::RunKind kind,
                                         const RunOptions& ro,
                                         std::optional<FaultReport>* report) const {
  obs::ScopedPhase phase(obs::Phase::kSimulate);
  opts.obs = ro.obs;
  // A fresh injector per measured run: its RNG restarts from the schedule
  // seed, so the same (workload, schedule) pair is identically faulted every
  // time it is simulated.
  std::unique_ptr<fault::FaultInjector> inj;
  if (ro.Faulted()) {
    inj = std::make_unique<fault::FaultInjector>(*ro.faults);
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
  if (inj != nullptr && report != nullptr) {
    *report = FaultReport{m.GatherConservation(), inj->counts()};
  }
  if constexpr (obs::kObsEnabled) obs::GlobalPhases().AddRun(kind, r.events);
  return r;
}

runtime::RunResult Experiment::RunProfile(runtime::MachineOptions opts, obs::RunKind kind) {
  if (have_traces_.load(std::memory_order_acquire)) {
    return RunTraces(cfg_, base_traces_, opts, kind);
  }
  return RunTraces(cfg_, LowerBase(), opts, kind);
}

const runtime::RunResult& Experiment::Baseline() {
  std::call_once(baseline_once_,
                 [&] { baseline_ = RunProfile({}, obs::RunKind::kBaseline); });
  return baseline_;
}

const runtime::RunResult& Experiment::Observe() {
  std::call_once(observe_once_, [&] {
    runtime::MachineOptions opts;
    opts.observe = true;
    observe_ = RunProfile(opts, obs::RunKind::kObserve);
    have_observe_.store(true, std::memory_order_release);
  });
  return observe_;
}

sim::Cycle Experiment::BaselineMakespan() {
  return have_observe_.load(std::memory_order_acquire) ? observe_.makespan
                                                       : Baseline().makespan;
}

SchemeResult Experiment::Run(Scheme scheme, const RunOptions& ro) {
  SchemeResult out;
  out.scheme = scheme;

  switch (scheme) {
    case Scheme::kBaseline:
      if (ro.obs != nullptr || ro.Faulted()) {
        // The cached baseline carries no observation or fault data;
        // re-simulate so the requested trace/audit/faults reflect this very
        // scheme.
        out.run = RunTraces(cfg_, BaselineTraces(), {}, obs::RunKind::kBaseline, ro,
                            &out.fault_report);
      } else {
        out.run = Baseline();
      }
      out.improvement_pct = ImprovementPct(BaselineMakespan(), out.run.makespan);
      return out;
    case Scheme::kAlgorithm1: {
      compiler::CompileOptions opt;
      opt.mode = compiler::Mode::kAlgorithm1;
      return RunCompiled(opt, ro);
    }
    case Scheme::kAlgorithm2: {
      compiler::CompileOptions opt;
      opt.mode = compiler::Mode::kAlgorithm2;
      return RunCompiled(opt, ro);
    }
    default:
      break;
  }

  // Lower before asking for the observe run, so that run reuses these
  // traces instead of lowering its own copy.
  const std::vector<arch::Trace>& traces = BaselineTraces();
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
  out.run = RunTraces(cfg_, traces, opts, obs::RunKind::kPolicy, ro, &out.fault_report);
  out.improvement_pct = ImprovementPct(BaselineMakespan(), out.run.makespan);
  return out;
}

SchemeResult Experiment::RunCompiled(compiler::CompileOptions opt, const RunOptions& ro) {
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
  out.run = RunTraces(cfg, traces, {}, obs::RunKind::kCompiled, ro, &out.fault_report);
  out.improvement_pct = ImprovementPct(BaselineMakespan(), out.run.makespan);
  return out;
}

}  // namespace ndc::metrics
