// Integration tests for the full machine: memory hierarchy timing, NUCA
// homing, NDC offload execution at each location kind, time-outs and
// fallbacks, and the observation (quantification) mode of Section 4.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "arch/config.hpp"
#include "arch/trace.hpp"
#include "compiler/codegen.hpp"
#include "compiler/pipeline.hpp"
#include "ndc/machine.hpp"
#include "ndc/policy.hpp"
#include "workloads/sharded.hpp"
#include "workloads/workloads.hpp"

namespace ndc::runtime {
namespace {

using arch::ArchConfig;
using arch::Instr;
using arch::Loc;
using arch::MakeCompute;
using arch::MakeLoad;
using arch::MakePreCompute;
using arch::MakeStore;
using arch::Op;
using arch::Trace;

// Two addresses with the same L2 home bank (node 0) but different L1 lines.
constexpr sim::Addr kAddrA = 0;
constexpr sim::Addr kAddrB = 256ull * 25;  // home = (B/256) % 25 = 0

std::vector<Trace> Program(sim::NodeId core, Trace t, int num_cores = 25) {
  std::vector<Trace> p(static_cast<std::size_t>(num_cores));
  p[static_cast<std::size_t>(core)] = std::move(t);
  return p;
}

TEST(Machine, SingleLoadMissTraversesHierarchy) {
  ArchConfig cfg;
  Machine m(cfg);
  const std::vector<Trace> m_program = Program(6, {MakeLoad(kAddrA)});
  m.LoadProgram(m_program);
  RunResult r = m.Run();
  EXPECT_EQ(r.l1_misses, 1u);
  EXPECT_EQ(r.l2_misses, 1u);
  // L1 tag check + request to home + L2 access + MC round trip + responses.
  EXPECT_GT(r.makespan, cfg.l2.access_latency + cfg.dram.row_miss_latency);
  EXPECT_LT(r.makespan, 500u);
}

TEST(Machine, SecondAccessToSameLineHitsL1) {
  ArchConfig cfg;
  Machine m(cfg);
  Trace t{MakeLoad(kAddrA), MakeLoad(kAddrA + 8)};
  t[1].dep0 = 0;  // force ordering so the fill has landed
  const std::vector<Trace> m_program = Program(6, std::move(t));
  m.LoadProgram(m_program);
  RunResult r = m.Run();
  EXPECT_EQ(r.l1_misses, 1u);
  EXPECT_EQ(r.l1_hits, 1u);
}

TEST(Machine, L2HitIsFasterThanMemoryAccess) {
  ArchConfig cfg;
  // Two cores read the same L2 line; the second (delayed) gets an L2 hit.
  Machine miss_machine(cfg);
  const std::vector<Trace> miss_machine_program = Program(6, {MakeLoad(kAddrA)});
  miss_machine.LoadProgram(miss_machine_program);
  sim::Cycle miss_time = miss_machine.Run().makespan;

  Machine m(cfg);
  std::vector<Trace> p(25);
  p[6] = {MakeLoad(kAddrA)};
  // Core 7: long dependent chain, then read a different word of A's L2 line
  // (different L1 line to avoid its own L1).
  Trace t7;
  t7.push_back(MakeCompute(Op::kAdd, -1, -1, false));
  for (int i = 1; i < 400; ++i) t7.push_back(MakeCompute(Op::kAdd, i - 1, -1, false));
  t7.push_back(MakeLoad(kAddrA + 64, 399));
  p[7] = std::move(t7);
  m.LoadProgram(p);
  RunResult r = m.Run();
  EXPECT_EQ(r.l2_hits, 1u);
  EXPECT_EQ(r.l2_misses, 1u);
  // Core 7 issues its load at ~cycle 400 (serial 400-compute chain); the L2
  // hit must finish well before a full memory access would have.
  EXPECT_LT(r.makespan, 400 + miss_time);
  EXPECT_GT(r.makespan, 400u);
}

TEST(Machine, StoreGeneratesWriteTraffic) {
  ArchConfig cfg;
  Machine m(cfg);
  const std::vector<Trace> m_program = Program(3, {MakeStore(0x12345)});
  m.LoadProgram(m_program);
  RunResult r = m.Run();
  EXPECT_GT(r.stats.Get("noc.packets"), 0u);
}

TEST(Machine, CandidateWithoutPolicyRunsConventionally) {
  ArchConfig cfg;
  Machine m(cfg);
  Trace t{MakeLoad(kAddrA), MakeLoad(kAddrB), MakeCompute(Op::kAdd, 0, 1, true)};
  const std::vector<Trace> m_program = Program(6, std::move(t));
  m.LoadProgram(m_program);
  RunResult r = m.Run();
  EXPECT_EQ(r.ndc_success, 0u);
  EXPECT_EQ(r.offloads, 0u);
  EXPECT_EQ(r.l1_misses, 2u);
}

TEST(Machine, AlwaysWaitPolicyPerformsNdc) {
  ArchConfig cfg;
  AlwaysWaitPolicy policy(cfg);
  MachineOptions opts;
  opts.policy = &policy;
  Machine m(cfg, opts);
  Trace t{MakeLoad(kAddrA), MakeLoad(kAddrB), MakeCompute(Op::kAdd, 0, 1, true)};
  const std::vector<Trace> m_program = Program(6, std::move(t));
  m.LoadProgram(m_program);
  RunResult r = m.Run();
  EXPECT_EQ(r.candidates, 1u);
  EXPECT_EQ(r.offloads, 1u);
  EXPECT_EQ(r.ndc_success, 1u);
  EXPECT_EQ(r.fallbacks, 0u);
  // Responses were squashed before reaching the core: L1 must not contain
  // the operand lines afterwards (the locality cost of NDC).
  EXPECT_FALSE(m.l1(6).Contains(kAddrA));
  EXPECT_FALSE(m.l1(6).Contains(kAddrB));
}

TEST(Machine, ControlRegisterRestrictsLocation) {
  ArchConfig cfg;
  cfg.control_register = arch::LocBit(Loc::kCacheCtrl);
  AlwaysWaitPolicy policy(cfg);
  MachineOptions opts;
  opts.policy = &policy;
  Machine m(cfg, opts);
  Trace t{MakeLoad(kAddrA), MakeLoad(kAddrB), MakeCompute(Op::kAdd, 0, 1, true)};
  const std::vector<Trace> m_program = Program(6, std::move(t));
  m.LoadProgram(m_program);
  RunResult r = m.Run();
  EXPECT_EQ(r.ndc_success, 1u);
  EXPECT_EQ(r.ndc_at_loc[static_cast<std::size_t>(Loc::kCacheCtrl)], 1u);
  EXPECT_EQ(r.ndc_at_loc[static_cast<std::size_t>(Loc::kLinkBuffer)], 0u);
}

TEST(Machine, LocalL1HitSkipsNdc) {
  ArchConfig cfg;
  AlwaysWaitPolicy policy(cfg);
  MachineOptions opts;
  opts.policy = &policy;
  Machine m(cfg, opts);
  Trace t;
  t.push_back(MakeLoad(kAddrA));               // 0: warms L1 with A
  t.push_back(MakeLoad(kAddrA + 8, 0));        // 1: ordered after fill
  t.push_back(MakeLoad(kAddrB, 1));            // 2
  t.push_back(MakeCompute(Op::kAdd, 1, 2, true));
  const std::vector<Trace> m_program = Program(6, std::move(t));
  m.LoadProgram(m_program);
  RunResult r = m.Run();
  EXPECT_EQ(r.local_l1_skips, 1u);
  EXPECT_EQ(r.offloads, 0u);
}

TEST(Machine, PreComputeExecutesAtPlannedL2Bank) {
  ArchConfig cfg;
  Machine m(cfg);
  Trace t{MakeLoad(kAddrA), MakeLoad(kAddrB),
          MakePreCompute(Op::kAdd, 0, 1, Loc::kCacheCtrl, 10000)};
  const std::vector<Trace> m_program = Program(6, std::move(t));
  m.LoadProgram(m_program);
  RunResult r = m.Run();
  EXPECT_EQ(r.offloads, 1u);
  EXPECT_EQ(r.ndc_success, 1u);
  EXPECT_EQ(r.ndc_at_loc[static_cast<std::size_t>(Loc::kCacheCtrl)], 1u);
}

TEST(Machine, PreComputeShortTimeoutFallsBack) {
  ArchConfig cfg;
  Machine m(cfg);
  std::vector<Trace> p(25);
  // Core 7 warms the home L2 bank with A's line.
  p[7] = {MakeLoad(kAddrA + 64)};
  // Core 6 waits ~400 cycles, then loads A (L2 hit, data at the bank fast)
  // and B (L2 miss, data at the bank ~130+ cycles later). The pre-compute's
  // 3-cycle time-out register expires long before B arrives.
  Trace t;
  t.push_back(MakeCompute(Op::kAdd, -1, -1, false));
  for (int i = 1; i < 400; ++i) t.push_back(MakeCompute(Op::kAdd, i - 1, -1, false));
  t.push_back(MakeLoad(kAddrA, 399));  // 400
  t.push_back(MakeLoad(kAddrB, 399));  // 401
  t.push_back(MakePreCompute(Op::kAdd, 400, 401, Loc::kCacheCtrl, 3));
  p[6] = std::move(t);
  m.LoadProgram(p);
  RunResult r = m.Run();
  EXPECT_EQ(r.offloads, 1u);
  EXPECT_EQ(r.ndc_success, 0u);
  EXPECT_EQ(r.fallbacks, 1u);
  EXPECT_GT(r.stats.Get("ndc.abort.timeout") + r.stats.Get("ndc.abort.partner_done"), 0u);
}

TEST(Machine, PreComputeInfeasiblePlanFallsBack) {
  ArchConfig cfg;
  Machine m(cfg);
  // Different home banks: L2 plan infeasible.
  sim::Addr b = 256;  // home bank 1
  Trace t{MakeLoad(kAddrA), MakeLoad(b),
          MakePreCompute(Op::kAdd, 0, 1, Loc::kCacheCtrl, 10000)};
  const std::vector<Trace> m_program = Program(6, std::move(t));
  m.LoadProgram(m_program);
  RunResult r = m.Run();
  EXPECT_EQ(r.ndc_success, 0u);
  EXPECT_EQ(r.stats.Get("ndc.plan_infeasible"), 1u);
  // The pre-compute still completes (conventional fallback).
  EXPECT_EQ(r.stats.Get("run.incomplete_cores"), 0u);
}

TEST(Machine, RestrictOpsToAddSubBlocksMul) {
  ArchConfig cfg;
  cfg.restrict_ops_to_addsub = true;
  AlwaysWaitPolicy policy(cfg);
  MachineOptions opts;
  opts.policy = &policy;
  Machine m(cfg, opts);
  Trace t{MakeLoad(kAddrA), MakeLoad(kAddrB), MakeCompute(Op::kMul, 0, 1, true)};
  const std::vector<Trace> m_program = Program(6, std::move(t));
  m.LoadProgram(m_program);
  RunResult r = m.Run();
  EXPECT_EQ(r.offloads, 0u);
}

TEST(Machine, ObserveModeRecordsArrivalWindows) {
  ArchConfig cfg;
  MachineOptions opts;
  opts.observe = true;
  Machine m(cfg, opts);
  Trace t{MakeLoad(kAddrA), MakeLoad(kAddrB), MakeCompute(Op::kAdd, 0, 1, true)};
  const std::vector<Trace> m_program = Program(6, std::move(t));
  m.LoadProgram(m_program);
  RunResult r = m.Run();
  ASSERT_NE(r.records, nullptr);
  EXPECT_EQ(r.records->TotalInstances(), 1u);
  const InstanceRecord* rec = r.records->Find(6, 2);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->a, kAddrA);
  EXPECT_EQ(rec->b, kAddrB);
  EXPECT_FALSE(rec->local_l1);
  EXPECT_TRUE(rec->at(Loc::kCacheCtrl).feasible);
  EXPECT_NE(rec->at(Loc::kCacheCtrl).Window(), sim::kNeverCycle);
  EXPECT_NE(rec->conv_done, sim::kNeverCycle);
  EXPECT_NE(rec->a_at_core, sim::kNeverCycle);
  // Observation must not change behaviour: no offloads happened.
  EXPECT_EQ(r.offloads, 0u);
  EXPECT_EQ(r.ndc_success, 0u);
}

TEST(Machine, ObserveModeMatchesBaselineTiming) {
  ArchConfig cfg;
  Trace t{MakeLoad(kAddrA), MakeLoad(kAddrB), MakeCompute(Op::kAdd, 0, 1, true),
          MakeStore(0x9999, 2)};
  Machine base(cfg);
  const std::vector<Trace> base_program = Program(6, Trace(t));
  base.LoadProgram(base_program);
  sim::Cycle base_time = base.Run().makespan;

  MachineOptions opts;
  opts.observe = true;
  Machine obs(cfg, opts);
  const std::vector<Trace> obs_program = Program(6, Trace(t));
  obs.LoadProgram(obs_program);
  EXPECT_EQ(obs.Run().makespan, base_time);
}

TEST(Machine, OraclePolicySkipsWhenOperandReused) {
  ArchConfig cfg;
  Trace t;
  t.push_back(MakeLoad(kAddrA));                    // 0
  t.push_back(MakeLoad(kAddrB));                    // 1
  t.push_back(MakeCompute(Op::kAdd, 0, 1, true));   // 2 candidate
  t.push_back(MakeLoad(kAddrA + 8, 2));             // 3 reuse of A's L1 line

  MachineOptions obs_opts;
  obs_opts.observe = true;
  Machine obs(cfg, obs_opts);
  const std::vector<Trace> obs_program = Program(6, Trace(t));
  obs.LoadProgram(obs_program);
  RunResult prof = obs.Run();
  const InstanceRecord* rec = prof.records->Find(6, 2);
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->operand_reused_later);

  OraclePolicy oracle(cfg, *prof.records, /*reuse_aware=*/true);
  MachineOptions run_opts;
  run_opts.policy = &oracle;
  Machine m(cfg, run_opts);
  const std::vector<Trace> m_program = Program(6, Trace(t));
  m.LoadProgram(m_program);
  RunResult r = m.Run();
  EXPECT_EQ(r.offloads, 0u);  // oracle favors data locality over NDC
}

TEST(Machine, ObserveRecordsFutureReuseAtBothLineGrains) {
  ArchConfig cfg;
  Trace t;
  t.push_back(MakeLoad(kAddrA));                   // 0
  t.push_back(MakeLoad(kAddrB));                   // 1
  t.push_back(MakeCompute(Op::kAdd, 0, 1, true));  // 2 candidate
  t.push_back(MakeLoad(kAddrA + 64, 2));           // 3 next L1 line, same L2 line

  MachineOptions obs_opts;
  obs_opts.observe = true;
  Machine obs(cfg, obs_opts);
  const std::vector<Trace> obs_program = Program(6, Trace(t));
  obs.LoadProgram(obs_program);
  RunResult prof = obs.Run();
  const InstanceRecord* rec = prof.records->Find(6, 2);
  ASSERT_NE(rec, nullptr);
  EXPECT_FALSE(rec->operand_reused_later);
  EXPECT_TRUE(rec->operand_reused_later_l2);

  Machine plain(cfg);
  const std::vector<Trace> plain_program = Program(6, Trace(t));
  plain.LoadProgram(plain_program);
  EXPECT_EQ(plain.Run().records, nullptr);
}

TEST(Machine, DeterministicAcrossRuns) {
  ArchConfig cfg;
  AlwaysWaitPolicy p1(cfg), p2(cfg);
  Trace t{MakeLoad(kAddrA), MakeLoad(kAddrB), MakeCompute(Op::kAdd, 0, 1, true),
          MakeLoad(0x5000, 2), MakeStore(0x6000, 3)};
  MachineOptions o1, o2;
  o1.policy = &p1;
  o2.policy = &p2;
  Machine m1(cfg, o1), m2(cfg, o2);
  const std::vector<Trace> m1_program = Program(6, Trace(t));
  m1.LoadProgram(m1_program);
  const std::vector<Trace> m2_program = Program(6, Trace(t));
  m2.LoadProgram(m2_program);
  RunResult r1 = m1.Run(), r2 = m2.Run();
  EXPECT_EQ(r1.makespan, r2.makespan);
  EXPECT_EQ(r1.events, r2.events);
  EXPECT_EQ(r1.ndc_success, r2.ndc_success);
}

TEST(Machine, AllCoresFinish) {
  ArchConfig cfg;
  AlwaysWaitPolicy policy(cfg);
  MachineOptions opts;
  opts.policy = &policy;
  Machine m(cfg, opts);
  std::vector<Trace> p(25);
  for (int c = 0; c < 25; ++c) {
    Trace t;
    for (int i = 0; i < 20; ++i) {
      auto base = static_cast<sim::Addr>(c * 0x10000 + i * 640);
      int l0 = static_cast<int>(t.size());
      t.push_back(MakeLoad(base));
      t.push_back(MakeLoad(base + 256ull * 25));
      t.push_back(MakeCompute(Op::kAdd, l0, l0 + 1, true));
      t.push_back(MakeStore(base + 0x800, l0 + 2));
    }
    p[static_cast<std::size_t>(c)] = std::move(t);
  }
  m.LoadProgram(p);
  RunResult r = m.Run();
  EXPECT_EQ(r.stats.Get("run.incomplete_cores"), 0u);
  EXPECT_EQ(r.candidates, 500u);
}

// FNV-1a accumulator for the lent-program digests below.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void Mix(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

std::uint64_t TracesDigest(const std::vector<Trace>& traces) {
  Fnv f;
  f.Mix(traces.size());
  for (const Trace& t : traces) {
    f.Mix(t.size());
    for (const Instr& i : t) {
      f.Mix(static_cast<std::uint64_t>(i.kind));
      f.Mix(static_cast<std::uint64_t>(i.op));
      f.Mix(i.addr);
      f.Mix(static_cast<std::uint64_t>(i.dep0));
      f.Mix(static_cast<std::uint64_t>(i.dep1));
      f.Mix(i.pc);
      f.Mix(i.site);
      f.Mix(i.ndc_candidate);
      f.Mix(static_cast<std::uint64_t>(i.planned_loc));
      f.Mix(i.timeout);
      f.Mix(static_cast<std::uint64_t>(i.sync_op));
      f.Mix(static_cast<std::uint64_t>(i.sync_arg));
      f.Mix(static_cast<std::uint64_t>(i.sync_arg2));
    }
  }
  return f.h;
}

std::uint64_t RunDigest(const RunResult& r) {
  Fnv f;
  for (std::uint64_t v : {std::uint64_t{r.makespan}, r.events, r.l1_hits, r.l1_misses, r.l2_hits,
                          r.l2_misses, r.candidates, r.local_l1_skips, r.offloads, r.ndc_success,
                          r.fallbacks}) {
    f.Mix(v);
  }
  for (std::uint64_t v : r.ndc_at_loc) f.Mix(v);
  for (const auto& [k, v] : r.stats.all()) {
    for (char c : k) f.Mix(static_cast<std::uint64_t>(c));
    f.Mix(v);
  }
  for (const auto& [addr, v] : r.sync_values) {
    f.Mix(addr);
    f.Mix(static_cast<std::uint64_t>(v));
  }
  return f.h;
}

struct PinnedRun {
  const char* run;
  std::uint64_t digest;
};

// Captured while Machine::LoadProgram still copied its traces; never
// re-capture these to make a change pass: a changed digest means a run's
// timing or counters changed.
constexpr PinnedRun kPinnedRuns[] = {
    {"swim/test/baseline", 0x384b5edb826e0d73ull},
    {"swim/test/default", 0x66e7382e493053c9ull},
    {"bt/test/algorithm-2", 0x82007657e50badc7ull},
    {"shard.reduce.lock/test/5x5", 0xf60ec9c48d174ed0ull},
    {"shard.stencil.wave/test/5x5", 0x34d03f8c13770eb3ull},
};

// A Machine borrows the traces it runs: the caller's copy is unchanged
// after the run, and the run is the one the copying Machine produced.
TEST(Machine, LentTracesStayUnchangedAndRunMatchesPinned) {
  ArchConfig cfg;
  std::vector<std::pair<std::string, std::uint64_t>> got;
  auto run = [&](const std::string& name, const std::vector<Trace>& traces,
                 MachineOptions opts) {
    std::uint64_t before = TracesDigest(traces);
    Machine m(cfg, opts);
    m.LoadProgram(traces);
    RunResult r = m.Run();
    EXPECT_EQ(TracesDigest(traces), before) << name;
    got.emplace_back(name, RunDigest(r));
  };

  const ir::Program swim = workloads::BuildWorkload("swim", workloads::Scale::kTest);
  const std::vector<Trace> base = compiler::Lower(swim, cfg.num_nodes(), &cfg).traces;
  run("swim/test/baseline", base, {});
  AlwaysWaitPolicy always(cfg);
  MachineOptions with_policy;
  with_policy.policy = &always;
  run("swim/test/default", base, with_policy);
  // bt offloads most of its pre-computes at test scale (swim's CME gate
  // suppresses them all there), so its rerouted operands cover that path.
  ir::Program compiled = workloads::BuildWorkload("bt", workloads::Scale::kTest);
  compiler::CompileOptions opt;
  opt.mode = compiler::Mode::kAlgorithm2;
  compiler::Compile(compiled, compiler::ArchDescription(cfg), opt);
  run("bt/test/algorithm-2", compiler::Lower(compiled, cfg.num_nodes(), &cfg).traces, {});
  for (const char* name : {"shard.reduce.lock", "shard.stencil.wave"}) {
    ir::Program prog =
        workloads::BuildShardedWorkload(name, workloads::Scale::kTest, cfg.num_nodes());
    run(std::string(name) + "/test/5x5", compiler::Lower(prog, cfg.num_nodes(), &cfg).traces,
        {});
  }

  ASSERT_EQ(got.size(), std::size(kPinnedRuns));
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, kPinnedRuns[i].run);
    EXPECT_EQ(got[i].second, kPinnedRuns[i].digest)
        << got[i].first << ": got 0x" << std::hex << got[i].second;
  }
}

}  // namespace
}  // namespace ndc::runtime
