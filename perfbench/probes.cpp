#include "probes.hpp"

#include <memory>
#include <set>
#include <utility>

#include "compiler/codegen.hpp"
#include "compiler/pipeline.hpp"
#include "fault/conservation.hpp"
#include "ndc/machine.hpp"
#include "ndc/policy.hpp"
#include "obs/obs.hpp"
#include "verify/verify.hpp"
#include "workloads/sharded.hpp"

namespace perfbench {

using ndc::harness::CellResult;
using ndc::harness::CellSpec;
using ndc::harness::SweepSpec;
using ndc::metrics::Scheme;

void SpanRecorder::Add(const std::string& name, std::uint64_t ns) {
  Total& t = totals_[name];
  ++t.count;
  t.ns += ns;
}

double SpanRecorder::Ms(const std::string& name) const {
  auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : static_cast<double>(it->second.ns) / 1e6;
}

SpanRecorder::Scope::Scope(SpanRecorder* rec, std::string name)
    : rec_(rec) {
  if (rec_ != nullptr) {
    name_ = std::move(name);
    start_ = std::chrono::steady_clock::now();
  }
}

SpanRecorder::Scope::~Scope() {
  if (rec_ == nullptr) return;
  auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start_)
                .count();
  rec_->Add(name_, static_cast<std::uint64_t>(ns));
}

std::uint64_t ProbeResult::DistinctEvents() const {
  std::uint64_t n = 0;
  for (std::uint64_t e : events) n += e;
  return n;
}

namespace {

ndc::ir::Program BuildProgram(const CellSpec& c) {
  return ndc::workloads::IsShardedScenario(c.workload)
             ? ndc::workloads::BuildShardedWorkload(c.workload, c.scale, c.cfg.num_nodes(),
                                                    c.seed)
             : ndc::workloads::BuildWorkload(c.workload, c.scale, c.seed);
}

std::unique_ptr<ndc::runtime::Policy> MakePolicy(Scheme s, const ndc::arch::ArchConfig& cfg,
                                                 const ndc::runtime::RunResult* observe) {
  using namespace ndc::runtime;
  switch (s) {
    case Scheme::kDefault: return std::make_unique<AlwaysWaitPolicy>(cfg);
    case Scheme::kOracle: return std::make_unique<OraclePolicy>(cfg, *observe->records);
    case Scheme::kWait5:
      return std::make_unique<FractionWaitPolicy>(cfg, *observe->records, 0.05);
    case Scheme::kWait10:
      return std::make_unique<FractionWaitPolicy>(cfg, *observe->records, 0.10);
    case Scheme::kWait25:
      return std::make_unique<FractionWaitPolicy>(cfg, *observe->records, 0.25);
    case Scheme::kWait50:
      return std::make_unique<FractionWaitPolicy>(cfg, *observe->records, 0.50);
    case Scheme::kLastWait: return std::make_unique<LastWaitPolicy>(cfg);
    case Scheme::kMarkov: return std::make_unique<MarkovWaitPolicy>(cfg);
    default: return nullptr;
  }
}

void FillRun(const ndc::runtime::RunResult& r, CellResult* out) {
  out->makespan = r.makespan;
  out->l1_hits = r.l1_hits;
  out->l1_misses = r.l1_misses;
  out->l2_hits = r.l2_hits;
  out->l2_misses = r.l2_misses;
  out->candidates = r.candidates;
  out->local_l1_skips = r.local_l1_skips;
  out->offloads = r.offloads;
  out->ndc_success = r.ndc_success;
  out->fallbacks = r.fallbacks;
  out->ndc_at_loc = r.ndc_at_loc;
  out->stats = r.stats.all();
}

/// State shared by the runs of one workload program.
struct ProgramState {
  ndc::ir::Program program;
  std::vector<ndc::arch::Trace> traces;
  ndc::runtime::RunResult baseline;
  ndc::runtime::RunResult observe;
};

class Prober {
 public:
  Prober(const SweepSpec& spec, SpanRecorder* rec) : spec_(spec), rec_(rec) {
    out_.cells.resize(spec.cells.size());
    out_.faulty.resize(spec.cells.size());
  }

  ProbeResult Run() {
    std::vector<RunDesc> runs = DistinctRuns(spec_);
    // Runs of one program are simulated together, so only one program's
    // state is alive at a time.
    std::vector<std::string> order;
    std::map<std::string, std::vector<RunDesc>> by_program;
    for (RunDesc& r : runs) {
      auto& list = by_program[r.program_key];
      if (list.empty()) order.push_back(r.program_key);
      list.push_back(std::move(r));
    }
    for (const std::string& key : order) {
      const std::vector<RunDesc>& list = by_program[key];
      ProgramState st;
      const CellSpec& first = spec_.cells[list.front().cell];
      {
        SpanRecorder::Scope s(rec_, "workloads.build_ms");
        st.program = BuildProgram(first);
      }
      {
        SpanRecorder::Scope s(rec_, "compiler.lower_ms");
        st.traces = ndc::compiler::Lower(st.program, first.cfg.num_nodes(), &first.cfg).traces;
      }
      for (const RunDesc& r : list) Simulate(r, &st);
      FillCells(key, st);
    }
    out_.distinct_runs = runs.size();
    return std::move(out_);
  }

 private:
  /// Runs `traces` on a fresh Machine. A policy run gets a fresh policy
  /// for each Machine, since the adaptive ones learn during a run.
  ndc::runtime::RunResult Machine(const RunDesc& run, const ndc::arch::ArchConfig& cfg,
                                  ndc::runtime::MachineOptions opts,
                                  const std::vector<ndc::arch::Trace>& traces,
                                  const ProgramState& st) {
    auto make_policy = [&] {
      return run.kind == RunKind::kPolicy
                 ? MakePolicy(spec_.cells[run.cell].scheme, cfg, &st.observe)
                 : nullptr;
    };
    std::unique_ptr<ndc::runtime::Policy> policy = make_policy();
    opts.policy = policy.get();
    std::unique_ptr<ndc::runtime::Machine> m;
    {
      SpanRecorder::Scope s(rec_, "ndc.setup_ms");
      m = std::make_unique<ndc::runtime::Machine>(cfg, opts);
      m->LoadProgram(traces);
    }
    ndc::runtime::RunResult r;
    {
      SpanRecorder::Scope s(rec_, std::string("ndc.run_ms.") + RunKindName(run.kind));
      r = m->Run();
    }
    out_.events[static_cast<int>(run.kind)] += r.events;
    std::size_t violations =
        ndc::fault::CheckConservation(m->GatherConservation()).violations.size();
    out_.conservation_violations += violations;
    if (violations > 0) faulty_runs_.insert(run.key);
    m.reset();
    if (rec_ != nullptr) {
      // The same run with the simulator's own tracing on, right after the
      // untraced one, so both see the same warm-up.
      policy = make_policy();
      opts.policy = policy.get();
      ndc::obs::Observability obs;
      opts.obs = &obs;
      ndc::runtime::Machine traced(cfg, opts);
      traced.LoadProgram(traces);
      SpanRecorder::Scope s(rec_, "obs.run_ms");
      traced.Run();
    }
    return r;
  }

  void Simulate(const RunDesc& r, ProgramState* st) {
    const CellSpec& c = spec_.cells[r.cell];
    switch (r.kind) {
      case RunKind::kBaseline:
        st->baseline = Machine(r, c.cfg, {}, st->traces, *st);
        return;
      case RunKind::kObserve: {
        ndc::runtime::MachineOptions opts;
        opts.observe = true;
        st->observe = Machine(r, c.cfg, opts, st->traces, *st);
        return;
      }
      case RunKind::kPolicy:
        FillRun(Machine(r, c.cfg, {}, st->traces, *st), &scheme_runs_[r.key]);
        return;
      case RunKind::kCompiled: {
        ndc::compiler::CompileOptions opt;
        opt.mode = c.scheme == Scheme::kAlgorithm2 ? ndc::compiler::Mode::kAlgorithm2
                                                   : ndc::compiler::Mode::kAlgorithm1;
        opt.allow_reroute = c.allow_reroute;
        opt.control_register = c.control_register;
        opt.verify_after = false;
        ndc::arch::ArchConfig cfg = c.cfg;
        cfg.allow_reroute = opt.allow_reroute;
        cfg.control_register = opt.control_register;
        ndc::ir::Program prog = st->program;
        ndc::compiler::CompileReport rep;
        {
          SpanRecorder::Scope s(rec_, "compiler.compile_ms");
          rep = ndc::compiler::Compile(prog, ndc::compiler::ArchDescription(cfg), opt);
        }
        {
          SpanRecorder::Scope s(rec_, "verify.audit_ms");
          ndc::verify::VerifyOptions vo;
          vo.max_lead = opt.max_lead;
          vo.control_register = opt.control_register;
          auto errors =
              static_cast<std::uint64_t>(ndc::verify::VerifyProgram(prog, vo).ErrorCount());
          out_.verify_errors += errors;
          if (errors > 0) faulty_runs_.insert(r.key);
        }
        std::vector<ndc::arch::Trace> traces;
        {
          SpanRecorder::Scope s(rec_, "compiler.lower_ms");
          traces = ndc::compiler::Lower(prog, cfg.num_nodes(), &cfg).traces;
        }
        CellResult& cr = scheme_runs_[r.key];
        FillRun(Machine(r, cfg, {}, traces, *st), &cr);
        cr.chains = rep.chains;
        cr.planned = rep.planned;
        cr.reuse_skips = rep.reuse_skips;
        cr.legality_failures = rep.legality_failures;
        cr.gating_failures = rep.gating_failures;
        cr.transforms = rep.transforms;
        return;
      }
    }
  }

  // Rebuilds the CellResult of every cell simulating program `key`.
  void FillCells(const std::string& key, const ProgramState& st) {
    for (std::size_t i = 0; i < spec_.cells.size(); ++i) {
      std::vector<RunDesc> runs = RunsOfCell(spec_, i);
      if (runs.front().program_key != key) continue;
      for (const RunDesc& r : runs) out_.faulty[i] = out_.faulty[i] || faulty_runs_.count(r.key);
      CellResult& cell = out_.cells[i];
      if (runs.back().kind == RunKind::kBaseline) {
        FillRun(st.baseline, &cell);
      } else {
        cell = scheme_runs_.at(runs.back().key);
      }
      cell.baseline_makespan = st.baseline.makespan;
    }
  }

  const SweepSpec& spec_;
  SpanRecorder* rec_;
  ProbeResult out_;
  std::map<std::string, CellResult> scheme_runs_;
  std::set<std::string> faulty_runs_;  ///< keys of runs that broke a check
};

}  // namespace

ProbeResult RunProbes(const SweepSpec& spec, SpanRecorder* rec) {
  return Prober(spec, rec).Run();
}

std::uint64_t BuildInputs(const SweepSpec& spec) {
  std::uint64_t instrs = 0;
  for (std::size_t i : DistinctPrograms(spec)) {
    const CellSpec& c = spec.cells[i];
    ndc::ir::Program prog = BuildProgram(c);
    instrs += ndc::compiler::Lower(prog, c.cfg.num_nodes(), &c.cfg).total_instrs;
  }
  return instrs;
}

}  // namespace perfbench
