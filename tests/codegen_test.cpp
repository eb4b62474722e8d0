// Tests for code generation: lowering loop nests to per-core traces,
// dependence wiring, NDC candidate marking, pre-compute emission with the
// per-iteration CME gate, access-movement leads, schedule transforms, and
// block distribution, and digests that pin the lowered output of every
// workload.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "compiler/codegen.hpp"
#include "compiler/pipeline.hpp"
#include "ir/program.hpp"
#include "workloads/sharded.hpp"
#include "workloads/workloads.hpp"

namespace ndc::compiler {
namespace {

using arch::Instr;
using ir::AffineAccess;
using ir::Int;
using ir::IntMat;
using ir::IntVec;
using ir::LoopNest;
using ir::Operand;
using ir::Program;
using ir::Stmt;

Operand Aff(int array, IntVec coefs, Int off) {
  AffineAccess a;
  a.array = array;
  a.F = IntMat(1, static_cast<int>(coefs.size()));
  for (int c = 0; c < a.F.cols(); ++c) a.F.at(0, c) = coefs[static_cast<std::size_t>(c)];
  a.f = {off};
  return Operand::Affine(a);
}

// z(i,j) = x(...) + y(...) over an n0 x n1 nest; strides of 8 elements keep
// every access on a fresh line (no spatial reuse, no CME gating surprises).
Program StreamProgram(Int n0, Int n1) {
  Program p;
  int x = p.AddArray("x", {n0 * n1 * 8});
  int y = p.AddArray("y", {n0 * n1 * 8});
  int z = p.AddArray("z", {n0 * n1});
  LoopNest nest;
  nest.loops = {{0, n0 - 1, -1, 0, -1, 0}, {0, n1 - 1, -1, 0, -1, 0}};
  Stmt s;
  s.id = p.NextStmtId();
  s.lhs = Aff(z, {n1, 1}, 0);
  s.op = arch::Op::kAdd;
  s.rhs0 = Aff(x, {n1 * 8, 8}, 0);
  s.rhs1 = Aff(y, {n1 * 8, 8}, 0);
  nest.body.push_back(s);
  p.nests.push_back(std::move(nest));
  return p;
}

int CountKind(const arch::Trace& t, Instr::Kind k) {
  int n = 0;
  for (const Instr& i : t) n += i.kind == k;
  return n;
}

TEST(Codegen, EmitsLoadsComputeStorePerIteration) {
  Program p = StreamProgram(4, 4);
  CodegenResult r = Lower(p, 1);
  const arch::Trace& t = r.traces[0];
  EXPECT_EQ(CountKind(t, Instr::Kind::kLoad), 32);
  EXPECT_EQ(CountKind(t, Instr::Kind::kCompute), 16);
  EXPECT_EQ(CountKind(t, Instr::Kind::kStore), 16);
  EXPECT_EQ(r.total_instrs, t.size());
}

TEST(Codegen, ComputeDependsOnItsLoads) {
  Program p = StreamProgram(2, 2);
  arch::Trace t = Lower(p, 1).traces[0];
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Instr::Kind::kCompute) continue;
    ASSERT_GE(t[i].dep0, 0);
    ASSERT_GE(t[i].dep1, 0);
    EXPECT_EQ(t[static_cast<std::size_t>(t[i].dep0)].kind, Instr::Kind::kLoad);
    EXPECT_EQ(t[static_cast<std::size_t>(t[i].dep1)].kind, Instr::Kind::kLoad);
    EXPECT_LT(static_cast<std::size_t>(t[i].dep0), i);
    EXPECT_TRUE(t[i].ndc_candidate);
  }
}

TEST(Codegen, StoreDependsOnCompute) {
  Program p = StreamProgram(2, 2);
  arch::Trace t = Lower(p, 1).traces[0];
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Instr::Kind::kStore) continue;
    ASSERT_GE(t[i].dep0, 0);
    Instr::Kind k = t[static_cast<std::size_t>(t[i].dep0)].kind;
    EXPECT_TRUE(k == Instr::Kind::kCompute || k == Instr::Kind::kPreCompute);
  }
}

TEST(Codegen, BlockDistributionAcrossCores) {
  Program p = StreamProgram(25, 4);
  CodegenResult r = Lower(p, 25);
  int active = 0;
  for (const arch::Trace& t : r.traces) active += !t.empty();
  EXPECT_EQ(active, 25);
  // Each core receives one outer iteration: identical instruction counts.
  for (const arch::Trace& t : r.traces) EXPECT_EQ(t.size(), r.traces[0].size());
}

TEST(Codegen, CoreForIterationIsBalancedAndMonotonic) {
  Program p = StreamProgram(100, 1);
  const LoopNest& nest = p.nests[0];
  int prev = 0;
  std::vector<int> count(25, 0);
  for (Int i = 0; i < 100; ++i) {
    int c = CoreForIteration(nest, IntVec{i, 0}, 25);
    EXPECT_GE(c, prev);
    prev = c;
    ++count[static_cast<std::size_t>(c)];
  }
  for (int c : count) EXPECT_EQ(c, 4);
}

TEST(Codegen, PreComputeEmittedForOffloadedChains) {
  Program p = StreamProgram(4, 8);
  p.nests[0].body[0].ndc.offload = true;
  p.nests[0].body[0].ndc.planned = arch::Loc::kLinkBuffer;
  p.nests[0].body[0].ndc.timeout = 42;
  arch::Trace t = Lower(p, 1).traces[0];
  int pre = CountKind(t, Instr::Kind::kPreCompute);
  // 8-element strides never hit L1, so the per-iteration CME gate lets every
  // instance through.
  EXPECT_EQ(pre, 32);
  for (const Instr& in : t) {
    if (in.kind != Instr::Kind::kPreCompute) continue;
    EXPECT_EQ(in.planned_loc, arch::Loc::kLinkBuffer);
    EXPECT_EQ(in.timeout, 42u);
  }
}

TEST(Codegen, CmeGateSuppressesPreComputeOnDenseStrides) {
  // Dense strides have spatial reuse: most instances must stay conventional.
  Program p;
  int x = p.AddArray("x", {4096});
  int y = p.AddArray("y", {4096});
  LoopNest nest;
  nest.loops = {{0, 7, -1, 0, -1, 0}, {0, 63, -1, 0, -1, 0}};
  Stmt s;
  s.id = p.NextStmtId();
  s.rhs0 = Aff(x, {64, 1}, 0);
  s.rhs1 = Aff(y, {64, 1}, 0);
  s.ndc.offload = true;
  nest.body.push_back(s);
  p.nests.push_back(std::move(nest));
  arch::Trace t = Lower(p, 1).traces[0];
  int pre = CountKind(t, Instr::Kind::kPreCompute);
  int comp = CountKind(t, Instr::Kind::kCompute);
  EXPECT_LT(pre, comp);  // boundary line-crossings only
  EXPECT_GT(pre, 0);
}

TEST(Codegen, LeadHoistsOperandLoad) {
  Program p = StreamProgram(1, 32);
  p.nests[0].body[0].ndc.offload = true;
  p.nests[0].body[0].ndc.lead1 = 4;  // y loaded 4 iterations early
  arch::Trace t = Lower(p, 1).traces[0];
  // For later iterations the hoisted y-load sits ~4 iterations before its
  // pre-compute, while the x-load stays adjacent: the trace distance to
  // dep1 must exceed the distance to dep0 substantially.
  int checked = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Instr::Kind::kPreCompute) continue;
    ++checked;
    if (checked <= 8) continue;  // skip the clamped prologue iterations
    auto dist0 = static_cast<std::int64_t>(i) - t[i].dep0;
    auto dist1 = static_cast<std::int64_t>(i) - t[i].dep1;
    EXPECT_GT(dist1, dist0 + 6) << "pre-compute " << checked;
  }
  EXPECT_GT(checked, 8);
}

TEST(Codegen, NegativeLeadDelaysComputation) {
  Program p = StreamProgram(1, 32);
  p.nests[0].body[0].ndc.offload = true;
  p.nests[0].body[0].ndc.lead1 = -4;  // y loaded 4 iterations late
  arch::Trace t = Lower(p, 1).traces[0];
  // Every pre-compute still depends on both of its loads.
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Instr::Kind::kPreCompute) continue;
    EXPECT_LT(static_cast<std::size_t>(t[i].dep0), i);
    EXPECT_LT(static_cast<std::size_t>(t[i].dep1), i);
  }
}

TEST(Codegen, TransformReordersIterations) {
  Program p = StreamProgram(4, 4);
  // Interchange: traversal becomes column-major.
  p.nests[0].transform = IntMat(2, 2, {0, 1, 1, 0});
  arch::Trace t = Lower(p, 1).traces[0];
  // First two loads belong to iteration (0,0); the next x-load should be
  // x(1,0) = offset (1*4+0)*8 elements *8B under interchange.
  std::vector<sim::Addr> x_addrs;
  sim::Addr x_base = p.array(0).base;
  sim::Addr x_end = x_base + 4 * 4 * 8 * 8;
  for (const Instr& in : t) {
    if (in.kind == Instr::Kind::kLoad && in.addr >= x_base && in.addr < x_end) {
      x_addrs.push_back(in.addr - x_base);
    }
  }
  ASSERT_GE(x_addrs.size(), 2u);
  EXPECT_EQ(x_addrs[0], 0u);
  EXPECT_EQ(x_addrs[1], 4u * 8 * 8);  // iteration (1,0), not (0,1)
}

// Offsets of the x-loads (in iterations of StreamProgram's 8-element
// stride) in trace order: the executed iteration sequence i*n1 + j.
std::vector<Int> XLoadIterations(const Program& p, const arch::Trace& t) {
  const ir::Array& x = p.array(0);
  const sim::Addr end = x.base + static_cast<sim::Addr>(x.NumElems() * x.elem_bytes);
  std::vector<Int> out;
  for (const Instr& in : t) {
    if (in.kind == Instr::Kind::kLoad && in.addr >= x.base && in.addr < end) {
      out.push_back(static_cast<Int>((in.addr - x.base) / 64));
    }
  }
  return out;
}

TEST(Codegen, NonInjectiveTransformKeepsOriginalOrderAmongEqualKeys) {
  // T*I = (i, i): every iteration of row i shares one key, so the order is
  // the original one. T*I = (j, j): columns execute in turn, and within a
  // column (equal keys) rows keep their original, ascending order. 64 rows
  // per key are enough that an unstable sort would scramble them.
  const Int n0 = 64, n1 = 4;
  Program p = StreamProgram(n0, n1);
  p.nests[0].transform = IntMat(2, 2, {1, 0, 1, 0});
  std::vector<Int> rows_first = XLoadIterations(p, Lower(p, 1).traces[0]);
  ASSERT_EQ(rows_first.size(), static_cast<std::size_t>(n0 * n1));
  for (Int k = 0; k < n0 * n1; ++k) EXPECT_EQ(rows_first[static_cast<std::size_t>(k)], k);

  p.nests[0].transform = IntMat(2, 2, {0, 1, 0, 1});
  std::vector<Int> cols_first = XLoadIterations(p, Lower(p, 1).traces[0]);
  ASSERT_EQ(cols_first.size(), static_cast<std::size_t>(n0 * n1));
  std::size_t k = 0;
  for (Int j = 0; j < n1; ++j) {
    for (Int i = 0; i < n0; ++i) EXPECT_EQ(cols_first[k++], i * n1 + j) << "i=" << i;
  }
}

TEST(Codegen, PostWaitSkipsMissingAndSameCoreProducers) {
  // DOACROSS nest i in [0,8), j in [-i,0] on 4 cores, two outer iterations
  // per core; iteration (i,j) waits for (i-1,j). A core's second row has a
  // same-core producer, and (i,-i) has none at all: (i-1,-i) lies just
  // before row i-1, which starts on the previous core. So only
  // (2c, j > -2c) waits, on core c-1's post slot, for the producer's
  // 1-based position there: 2c, ..., 4c-1.
  const int cores = 4;
  Program p;
  int x = p.AddArray("x", {64});
  int z = p.AddArray("z", {64});
  int sync = p.AddArray("sync", {cores + 1});
  LoopNest nest;
  nest.loops = {{0, 7, -1, 0, -1, 0}, {0, 0, 0, -1, -1, 0}};
  Stmt s;
  s.id = p.NextStmtId();
  s.lhs = Aff(z, {8, 1}, 7);
  s.rhs0 = Aff(x, {8, 1}, 7);
  s.rhs1 = Operand::Scalar();
  nest.body.push_back(s);
  nest.sync.kind = ir::SyncKind::kPostWait;
  nest.sync.distance = 1;
  nest.sync.sync_array = sync;
  p.nests.push_back(std::move(nest));

  CodegenResult r = Lower(p, cores);
  const ir::Array& sa = p.array(sync);
  for (int c = 0; c < cores; ++c) {
    std::vector<std::int64_t> thresholds;
    int posts = 0;
    for (const Instr& in : r.traces[static_cast<std::size_t>(c)]) {
      if (in.kind != Instr::Kind::kSync) continue;
      if (in.sync_op == sync::SyncOp::kPost) {
        EXPECT_EQ(in.addr, sa.AddrOf({c}));
        ++posts;
      } else if (in.sync_op == sync::SyncOp::kWait) {
        EXPECT_EQ(in.addr, sa.AddrOf({c - 1}));
        thresholds.push_back(in.sync_arg);
      }
    }
    EXPECT_EQ(posts, (2 * c + 1) + (2 * c + 2)) << "core " << c;  // one per iteration
    std::vector<std::int64_t> want;
    for (int j = 0; c > 0 && j < 2 * c; ++j) want.push_back(2 * c + j);
    EXPECT_EQ(thresholds, want) << "core " << c;
  }
}

TEST(Codegen, IndirectOperandEmitsIndexLoadFirst) {
  Program p;
  int idx = p.AddArray("idx", {16});
  int tgt = p.AddArray("T", {64});
  int q = p.AddArray("q", {16 * 8});
  p.index_data[idx] = std::vector<Int>(16, 3);
  LoopNest nest;
  nest.loops = {{0, 15, -1, 0, -1, 0}};
  Stmt s;
  s.id = p.NextStmtId();
  AffineAccess ia;
  ia.array = idx;
  ia.F = IntMat(1, 1, {1});
  ia.f = {0};
  s.rhs0 = Operand::Indirect(ia, tgt);
  s.rhs1 = Aff(q, {8}, 0);
  nest.body.push_back(s);
  p.nests.push_back(std::move(nest));
  arch::Trace t = Lower(p, 1).traces[0];
  // Data loads through indirection depend on their index load.
  int dependent_loads = 0;
  for (const Instr& in : t) {
    if (in.kind == Instr::Kind::kLoad && in.dep0 >= 0) {
      EXPECT_EQ(t[static_cast<std::size_t>(in.dep0)].kind, Instr::Kind::kLoad);
      ++dependent_loads;
    }
  }
  EXPECT_EQ(dependent_loads, 16);
}

TEST(Codegen, MultipleNestsAppendSequentially) {
  Program p = StreamProgram(2, 2);
  Program p2 = StreamProgram(2, 2);
  p.nests.push_back(p2.nests[0]);
  arch::Trace t = Lower(p, 1).traces[0];
  EXPECT_EQ(CountKind(t, Instr::Kind::kCompute), 8);
}

TEST(Codegen, DeterministicOutput) {
  Program a = StreamProgram(6, 6);
  Program b = StreamProgram(6, 6);
  CodegenResult ra = Lower(a, 25);
  CodegenResult rb = Lower(b, 25);
  ASSERT_EQ(ra.traces.size(), rb.traces.size());
  for (std::size_t c = 0; c < ra.traces.size(); ++c) {
    ASSERT_EQ(ra.traces[c].size(), rb.traces[c].size());
    for (std::size_t i = 0; i < ra.traces[c].size(); ++i) {
      EXPECT_EQ(ra.traces[c][i].addr, rb.traces[c][i].addr);
      EXPECT_EQ(ra.traces[c][i].kind, rb.traces[c][i].kind);
    }
  }
}

// FNV-1a over every field of every instruction, each trace's length, and
// the result's totals: two lowerings agree iff their digests do (modulo
// collisions).
std::uint64_t LowerDigest(const CodegenResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(r.traces.size());
  for (const arch::Trace& t : r.traces) {
    mix(t.size());
    for (const Instr& i : t) {
      mix(static_cast<std::uint64_t>(i.kind));
      mix(static_cast<std::uint64_t>(i.op));
      mix(i.addr);
      mix(static_cast<std::uint64_t>(i.dep0));
      mix(static_cast<std::uint64_t>(i.dep1));
      mix(i.pc);
      mix(i.site);
      mix(i.ndc_candidate);
      mix(static_cast<std::uint64_t>(i.planned_loc));
      mix(i.timeout);
      mix(static_cast<std::uint64_t>(i.sync_op));
      mix(static_cast<std::uint64_t>(i.sync_arg));
      mix(static_cast<std::uint64_t>(i.sync_arg2));
    }
  }
  mix(r.total_instrs);
  mix(r.precomputes);
  return h;
}

struct PinnedDigest {
  const char* program;
  std::uint64_t digest;
};

// Captured from the lowering before its flat-iteration rewrite; never
// re-capture these to make a change pass: a changed digest means Lower's
// output changed.
constexpr PinnedDigest kPinnedDigests[] = {
    {"md/test/baseline", 0xfb7ca647cce62d19ull},
    {"md/test/algorithm-1", 0xca8b45cd00dde4b7ull},
    {"md/test/algorithm-2", 0xca8b45cd00dde4b7ull},
    {"bwaves/test/baseline", 0xc3be9d4466f0c346ull},
    {"bwaves/test/algorithm-1", 0x99643185c27234d4ull},
    {"bwaves/test/algorithm-2", 0x99643185c27234d4ull},
    {"nab/test/baseline", 0xfcde4b9d4457d826ull},
    {"nab/test/algorithm-1", 0x1788f55ff6935669ull},
    {"nab/test/algorithm-2", 0x1788f55ff6935669ull},
    {"bt/test/baseline", 0x34976753b3ccc17dull},
    {"bt/test/algorithm-1", 0x7475284193fe9110ull},
    {"bt/test/algorithm-2", 0x7475284193fe9110ull},
    {"fma3d/test/baseline", 0xa4606f81d6f82bb3ull},
    {"fma3d/test/algorithm-1", 0xf566c0f87137599full},
    {"fma3d/test/algorithm-2", 0xf566c0f87137599full},
    {"swim/test/baseline", 0x64844288fb8e941eull},
    {"swim/test/algorithm-1", 0x64844288fb8e941eull},
    {"swim/test/algorithm-2", 0x64844288fb8e941eull},
    {"imagick/test/baseline", 0xa18e5fbfc25c89d6ull},
    {"imagick/test/algorithm-1", 0x326acd66d47f7c40ull},
    {"imagick/test/algorithm-2", 0x326acd66d47f7c40ull},
    {"mgrid/test/baseline", 0xaa1fd03af825ba68ull},
    {"mgrid/test/algorithm-1", 0x3d22e768239cd441ull},
    {"mgrid/test/algorithm-2", 0x3d22e768239cd441ull},
    {"applu/test/baseline", 0x85487c72bb35ba5eull},
    {"applu/test/algorithm-1", 0x1a818e2ff704924cull},
    {"applu/test/algorithm-2", 0x1a818e2ff704924cull},
    {"smith.wa/test/baseline", 0x4bc1a8cbbc7be12eull},
    {"smith.wa/test/algorithm-1", 0x1cba6c44c20d5f78ull},
    {"smith.wa/test/algorithm-2", 0x1cba6c44c20d5f78ull},
    {"kdtree/test/baseline", 0x23cf0808fa4e980bull},
    {"kdtree/test/algorithm-1", 0xc29b0276d8993130ull},
    {"kdtree/test/algorithm-2", 0xc29b0276d8993130ull},
    {"barnes/test/baseline", 0xf2f1a506630ff2bbull},
    {"barnes/test/algorithm-1", 0x22e5f9fca3210efaull},
    {"barnes/test/algorithm-2", 0x22e5f9fca3210efaull},
    {"cholesky/test/baseline", 0x46fa9c33f5b55176ull},
    {"cholesky/test/algorithm-1", 0xcc2f1004d16540c7ull},
    {"cholesky/test/algorithm-2", 0xcc2f1004d16540c7ull},
    {"fft/test/baseline", 0x8ae5ef22f440413aull},
    {"fft/test/algorithm-1", 0xcb9da16a9c0606fcull},
    {"fft/test/algorithm-2", 0xcb9da16a9c0606fcull},
    {"lu/test/baseline", 0x1a1ae652bd4971f4ull},
    {"lu/test/algorithm-1", 0xa7e7784a6fc6c216ull},
    {"lu/test/algorithm-2", 0xa7e7784a6fc6c216ull},
    {"ocean/test/baseline", 0xc04986840233c8b5ull},
    {"ocean/test/algorithm-1", 0x2c31da3e469fcfd8ull},
    {"ocean/test/algorithm-2", 0x2c31da3e469fcfd8ull},
    {"radiosity/test/baseline", 0xa50a2299a4165e61ull},
    {"radiosity/test/algorithm-1", 0x80f71d4d92dee9b7ull},
    {"radiosity/test/algorithm-2", 0x80f71d4d92dee9b7ull},
    {"raytrace/test/baseline", 0x162f91836b2e3a2bull},
    {"raytrace/test/algorithm-1", 0x5b77bd3dbdd96766ull},
    {"raytrace/test/algorithm-2", 0x5b77bd3dbdd96766ull},
    {"volrend/test/baseline", 0x2f1053b9f2301aa5ull},
    {"volrend/test/algorithm-1", 0x9a6eb438df67984bull},
    {"volrend/test/algorithm-2", 0x9a6eb438df67984bull},
    {"water/test/baseline", 0x53a3b8efe35f1b73ull},
    {"water/test/algorithm-1", 0xc001f3fe8f2addfeull},
    {"water/test/algorithm-2", 0xc001f3fe8f2addfeull},
    {"md/small/baseline", 0x09d7968159bcd405ull},
    {"md/small/algorithm-1", 0x4233933ca6319057ull},
    {"md/small/algorithm-2", 0x4233933ca6319057ull},
    {"bwaves/small/baseline", 0x7c35b0655f19ec07ull},
    {"bwaves/small/algorithm-1", 0xeeedf78c0ce27b2eull},
    {"bwaves/small/algorithm-2", 0xeeedf78c0ce27b2eull},
    {"nab/small/baseline", 0x422ed766b04ee5e5ull},
    {"nab/small/algorithm-1", 0xbe4f2e7a0cde08c0ull},
    {"nab/small/algorithm-2", 0xbe4f2e7a0cde08c0ull},
    {"bt/small/baseline", 0x40f0bb03932a3568ull},
    {"bt/small/algorithm-1", 0x8f29b0f54e644414ull},
    {"bt/small/algorithm-2", 0x8f29b0f54e644414ull},
    {"fma3d/small/baseline", 0x1131f6d2df34c64dull},
    {"fma3d/small/algorithm-1", 0x1ca5d01f656bb1b8ull},
    {"fma3d/small/algorithm-2", 0x1ca5d01f656bb1b8ull},
    {"swim/small/baseline", 0x44ace52f1aab50c8ull},
    {"swim/small/algorithm-1", 0x527e546ec3f406e5ull},
    {"swim/small/algorithm-2", 0xe338b746d81c0797ull},
    {"imagick/small/baseline", 0x9585286152399498ull},
    {"imagick/small/algorithm-1", 0x1b5dbe5ca637849dull},
    {"imagick/small/algorithm-2", 0x1b5dbe5ca637849dull},
    {"mgrid/small/baseline", 0x70db4aaade654f7dull},
    {"mgrid/small/algorithm-1", 0x8a3e804e6ed743b2ull},
    {"mgrid/small/algorithm-2", 0x8a3e804e6ed743b2ull},
    {"applu/small/baseline", 0xdf1c8bb10d06f954ull},
    {"applu/small/algorithm-1", 0x8f0d3d51e85cb426ull},
    {"applu/small/algorithm-2", 0x8f0d3d51e85cb426ull},
    {"smith.wa/small/baseline", 0xbbb73720fdd16c04ull},
    {"smith.wa/small/algorithm-1", 0x67e9598134f38aa1ull},
    {"smith.wa/small/algorithm-2", 0x67e9598134f38aa1ull},
    {"kdtree/small/baseline", 0x450a483229c165b3ull},
    {"kdtree/small/algorithm-1", 0xa3534fff28d85652ull},
    {"kdtree/small/algorithm-2", 0xa3534fff28d85652ull},
    {"barnes/small/baseline", 0x9cc8f69873022585ull},
    {"barnes/small/algorithm-1", 0x652c89b9c18cbf3cull},
    {"barnes/small/algorithm-2", 0x652c89b9c18cbf3cull},
    {"cholesky/small/baseline", 0x7c64b0f3af7e7816ull},
    {"cholesky/small/algorithm-1", 0x8dcd6db93ebde016ull},
    {"cholesky/small/algorithm-2", 0x8dcd6db93ebde016ull},
    {"fft/small/baseline", 0xfae7e0f66c5f0547ull},
    {"fft/small/algorithm-1", 0xc4094e562ab1457full},
    {"fft/small/algorithm-2", 0xc4094e562ab1457full},
    {"lu/small/baseline", 0x88a5c1262d008997ull},
    {"lu/small/algorithm-1", 0x73318d2dcb8745a6ull},
    {"lu/small/algorithm-2", 0x73318d2dcb8745a6ull},
    {"ocean/small/baseline", 0xbe12b2d8427a6ec8ull},
    {"ocean/small/algorithm-1", 0x8e2379f88dc13959ull},
    {"ocean/small/algorithm-2", 0x8e2379f88dc13959ull},
    {"radiosity/small/baseline", 0x354c56bbd55a074cull},
    {"radiosity/small/algorithm-1", 0xc838024aa370f095ull},
    {"radiosity/small/algorithm-2", 0xc838024aa370f095ull},
    {"raytrace/small/baseline", 0xb8980fee4b8ebf51ull},
    {"raytrace/small/algorithm-1", 0x0190565d86211d4bull},
    {"raytrace/small/algorithm-2", 0x0190565d86211d4bull},
    {"volrend/small/baseline", 0x14aa48ce9ee4acc2ull},
    {"volrend/small/algorithm-1", 0xfdf74bd49e955f26ull},
    {"volrend/small/algorithm-2", 0xfdf74bd49e955f26ull},
    {"water/small/baseline", 0x16f19f334f9a9e0bull},
    {"water/small/algorithm-1", 0x967976f161563126ull},
    {"water/small/algorithm-2", 0x967976f161563126ull},
    {"shard.stream/test/4x4", 0x98e7c4b2e2a31c47ull},
    {"shard.stencil/test/4x4", 0x7518602a84e85f31ull},
    {"shard.reduce/test/4x4", 0x6fa95ee2f4edf8d5ull},
    {"shard.priv/test/4x4", 0xeac4b874b39b7a47ull},
    {"shard.reduce.atomic/test/4x4", 0x5b5ffae71670e201ull},
    {"shard.reduce.lock/test/4x4", 0x40223ffadd81d23bull},
    {"shard.stencil.wave/test/4x4", 0xb4cc46a6ddd2f27bull},
    {"shard.stream/test/5x5", 0x023372c844a4ec54ull},
    {"shard.stencil/test/5x5", 0x6ca1dedb29f0c027ull},
    {"shard.reduce/test/5x5", 0x81c15eddb3fa258bull},
    {"shard.priv/test/5x5", 0x248ceb3047619a94ull},
    {"shard.reduce.atomic/test/5x5", 0xaaf1008dd10df203ull},
    {"shard.reduce.lock/test/5x5", 0x5ad9aeac94d621e1ull},
    {"shard.stencil.wave/test/5x5", 0xb3161743c3b068aaull},
    {"shard.stream/small/4x4", 0x4c0a789f03b11133ull},
    {"shard.stencil/small/4x4", 0x5607fe12cfaf045cull},
    {"shard.reduce/small/4x4", 0x53193ac7b4b2bcf3ull},
    {"shard.priv/small/4x4", 0xd9e7950cbb026b33ull},
    {"shard.reduce.atomic/small/4x4", 0x0677a0b3c2e2b957ull},
    {"shard.reduce.lock/small/4x4", 0x2e13cc25fc7d12a7ull},
    {"shard.stencil.wave/small/4x4", 0x8ce1b7892fd7a2dfull},
    {"shard.stream/small/5x5", 0xb4fe61326fab17daull},
    {"shard.stencil/small/5x5", 0xc8201e4f2724789dull},
    {"shard.reduce/small/5x5", 0xf9f7c4b250739414ull},
    {"shard.priv/small/5x5", 0xf4c8763d3cc887daull},
    {"shard.reduce.atomic/small/5x5", 0xd69e2f13f8ee84bfull},
    {"shard.reduce.lock/small/5x5", 0x911a41d752faa8b9ull},
    {"shard.stencil.wave/small/5x5", 0x1f1e5dd121501c1full},
};

TEST(Codegen, LowerOutputMatchesPinnedDigests) {
  std::vector<std::pair<std::string, std::uint64_t>> got;
  arch::ArchConfig cfg;  // the 5x5 mesh of Table 1
  for (workloads::Scale scale : {workloads::Scale::kTest, workloads::Scale::kSmall}) {
    const std::string sc = scale == workloads::Scale::kTest ? "test" : "small";
    for (const std::string& name : workloads::BenchmarkNames()) {
      const Program base = workloads::BuildWorkload(name, scale);
      for (Mode mode : {Mode::kBaseline, Mode::kAlgorithm1, Mode::kAlgorithm2}) {
        Program prog = base;
        if (mode != Mode::kBaseline) {
          CompileOptions opt;
          opt.mode = mode;
          Compile(prog, ArchDescription(cfg), opt);
        }
        got.emplace_back(name + "/" + sc + "/" + ModeName(mode),
                         LowerDigest(Lower(prog, cfg.num_nodes(), &cfg)));
      }
    }
  }
  for (workloads::Scale scale : {workloads::Scale::kTest, workloads::Scale::kSmall}) {
    const std::string sc = scale == workloads::Scale::kTest ? "test" : "small";
    for (int side : {4, 5}) {
      arch::ArchConfig mesh;
      mesh.mesh_width = mesh.mesh_height = side;
      for (const std::string& name : workloads::ShardedNames()) {
        Program prog = workloads::BuildShardedWorkload(name, scale, mesh.num_nodes());
        got.emplace_back(name + "/" + sc + "/" + std::to_string(side) + "x" +
                             std::to_string(side),
                         LowerDigest(Lower(prog, mesh.num_nodes(), &mesh)));
      }
    }
  }
  // On a mismatch, print the whole table in source form for inspection.
  bool same = got.size() == std::size(kPinnedDigests);
  for (std::size_t i = 0; same && i < got.size(); ++i) {
    same = got[i].first == kPinnedDigests[i].program && got[i].second == kPinnedDigests[i].digest;
  }
  if (!same) {
    for (const auto& [program, digest] : got) {
      std::printf("    {\"%s\", 0x%016llxull},\n", program.c_str(),
                  static_cast<unsigned long long>(digest));
    }
  }
  ASSERT_EQ(got.size(), std::size(kPinnedDigests));
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, kPinnedDigests[i].program);
    EXPECT_EQ(got[i].second, kPinnedDigests[i].digest) << got[i].first;
  }
}

}  // namespace
}  // namespace ndc::compiler
