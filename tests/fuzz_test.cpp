// Randomized robustness tests: arbitrary (valid) traces over arbitrary
// address mixes, run under every policy, must always run to completion —
// no deadlocks, no lost completions — and deterministically. Plus a
// pipeline/auditor cross-check: random IR programs fed through Compile()
// in every mode must come out clean under the independent verifier. Plus
// the input parsers: random and mutated bytes fed to json::Parse,
// fault::ParseSchedule and the result-cache loader are accepted or
// rejected, never crash, and whatever is accepted re-serializes stably;
// cli::ParseUint, the numeric command-line flag parser, agrees with the
// strtoull check it replaced on random, mutated and boundary inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "arch/config.hpp"
#include "arch/trace.hpp"
#include "cli/flags.hpp"
#include "compiler/pipeline.hpp"
#include "fault/schedule.hpp"
#include "harness/cache.hpp"
#include "json/json.hpp"
#include "ndc/machine.hpp"
#include "ndc/policy.hpp"
#include "sim/rng.hpp"
#include "verify/verify.hpp"

namespace ndc::runtime {
namespace {

using arch::Instr;
using arch::MakeCompute;
using arch::MakeLoad;
using arch::MakePreCompute;
using arch::MakeStore;
using arch::Op;
using arch::Trace;

// Generates a random but structurally valid trace: loads with optional
// address deps, candidate computes over two previous loads, pre-computes
// with random planned locations/timeouts, dependent stores.
Trace RandomTrace(sim::Rng& rng, int len) {
  Trace t;
  std::vector<int> loads;
  auto rand_addr = [&] {
    // Mix of pages, lines, and nearby offsets to hit every component mix.
    return static_cast<sim::Addr>(rng.NextBelow(1u << 22)) & ~sim::Addr{7};
  };
  while (static_cast<int>(t.size()) < len) {
    switch (rng.NextBelow(10)) {
      case 0: case 1: case 2: case 3: {
        Instr ld = MakeLoad(rand_addr());
        if (!loads.empty() && rng.NextBool(0.2)) {
          ld.dep0 = loads[rng.NextBelow(loads.size())];
        }
        ld.pc = static_cast<std::uint32_t>(rng.NextBelow(32));
        loads.push_back(static_cast<int>(t.size()));
        t.push_back(ld);
        break;
      }
      case 4: case 5: {
        if (loads.size() < 2) break;
        int a = loads[loads.size() - 1];
        int b = loads[loads.size() - 2];
        t.push_back(MakeCompute(static_cast<Op>(rng.NextBelow(7)), a, b, true,
                                static_cast<std::uint32_t>(rng.NextBelow(32))));
        loads.clear();  // a load feeds at most one site
        break;
      }
      case 6: {
        if (loads.size() < 2) break;
        int a = loads[loads.size() - 1];
        int b = loads[loads.size() - 2];
        auto loc = static_cast<arch::Loc>(rng.NextBelow(4));
        t.push_back(MakePreCompute(static_cast<Op>(rng.NextBelow(7)), a, b, loc,
                                   rng.NextBelow(200) + 1,
                                   static_cast<std::uint32_t>(rng.NextBelow(32))));
        loads.clear();
        break;
      }
      case 7: {
        std::int32_t dep = -1;
        if (!t.empty() && rng.NextBool(0.5)) {
          dep = static_cast<std::int32_t>(rng.NextBelow(t.size()));
          if (t[static_cast<std::size_t>(dep)].kind == Instr::Kind::kStore) dep = -1;
        }
        t.push_back(MakeStore(rand_addr(), dep));
        break;
      }
      default:
        t.push_back(MakeCompute(Op::kAdd,
                                t.empty() ? -1
                                          : static_cast<std::int32_t>(rng.NextBelow(t.size())),
                                -1, false));
        if (!t.empty() &&
            t.back().dep0 >= 0 &&
            t[static_cast<std::size_t>(t.back().dep0)].kind == Instr::Kind::kStore) {
          t.back().dep0 = -1;
        }
        break;
    }
  }
  return t;
}

std::vector<Trace> RandomProgram(std::uint64_t seed, int cores, int len) {
  sim::Rng rng(seed);
  std::vector<Trace> p(static_cast<std::size_t>(cores));
  for (int c = 0; c < cores; ++c) p[static_cast<std::size_t>(c)] = RandomTrace(rng, len);
  return p;
}

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, AllPoliciesRunToCompletion) {
  arch::ArchConfig cfg;
  std::vector<Trace> program = RandomProgram(GetParam(), 25, 120);

  // Baseline + observe + every hardware policy.
  std::vector<std::unique_ptr<Policy>> policies;
  policies.push_back(nullptr);
  policies.push_back(std::make_unique<AlwaysWaitPolicy>(cfg));
  policies.push_back(std::make_unique<LastWaitPolicy>(cfg));
  policies.push_back(std::make_unique<MarkovWaitPolicy>(cfg));

  for (auto& pol : policies) {
    MachineOptions opts;
    opts.policy = pol.get();
    Machine m(cfg, opts);
    m.LoadProgram(program);
    RunResult r = m.Run(/*limit=*/50'000'000);
    EXPECT_EQ(r.stats.Get("run.incomplete_cores"), 0u)
        << "seed " << GetParam() << " policy " << (pol ? pol->name() : "none");
  }

  // Observation mode.
  MachineOptions obs;
  obs.observe = true;
  Machine m(cfg, obs);
  m.LoadProgram(program);
  RunResult r = m.Run(50'000'000);
  EXPECT_EQ(r.stats.Get("run.incomplete_cores"), 0u);
}

TEST_P(FuzzSeeds, DeterministicUnderDefaultPolicy) {
  arch::ArchConfig cfg;
  std::vector<Trace> program = RandomProgram(GetParam() * 77 + 5, 25, 80);
  sim::Cycle first = 0;
  for (int run = 0; run < 2; ++run) {
    AlwaysWaitPolicy pol(cfg);
    MachineOptions opts;
    opts.policy = &pol;
    Machine m(cfg, opts);
    m.LoadProgram(program);
    RunResult r = m.Run(50'000'000);
    if (run == 0) {
      first = r.makespan;
    } else {
      EXPECT_EQ(r.makespan, first);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds, ::testing::Values(1, 2, 3, 4, 5, 11, 23, 42));

// --- random IR programs: the compiler must never emit annotations the ---
// --- independent auditor (src/verify) rejects ---------------------------

// Generates a random but structurally valid IR program: rectangular nests
// of depth 1-3, 1-D flattened or rank-matched affine accesses (arrays sized
// so every subscript stays in bounds), occasional stencil offsets, reused
// arrays across statements (creating real dependences), and occasional
// indirect accesses (creating unknown dependences the pipeline must respect).
ir::Program RandomIrProgram(std::uint64_t seed) {
  sim::Rng rng(seed);
  ir::Program p;
  p.name = "fuzz-" + std::to_string(seed);

  int depth = 1 + static_cast<int>(rng.NextBelow(3));
  std::vector<ir::Int> trips;
  std::vector<ir::Loop> loops;
  for (int l = 0; l < depth; ++l) {
    ir::Int trip = 3 + static_cast<ir::Int>(rng.NextBelow(6));
    trips.push_back(trip);
    loops.push_back({0, trip - 1, -1, 0, -1, 0});
  }

  // Arrays sized to admit any offset in [-2, 2] on any dimension.
  ir::Int slack = 4;
  std::vector<int> arrays;
  int num_arrays = 2 + static_cast<int>(rng.NextBelow(3));
  for (int a = 0; a < num_arrays; ++a) {
    std::vector<ir::Int> dims;
    for (int l = 0; l < depth; ++l) dims.push_back(trips[static_cast<std::size_t>(l)] + slack);
    arrays.push_back(p.AddArray("A" + std::to_string(a), dims));
  }
  int idx_array = -1;
  if (rng.NextBool(0.3)) {
    // A 1-D index array covering the innermost trip count, pointing into
    // the first data array's flattened elements.
    ir::Int n = trips.back() + slack;
    idx_array = p.AddArray("idx", {n});
    std::vector<ir::Int>& data = p.index_data[idx_array];
    ir::Int target_elems = p.array(arrays[0]).NumElems();
    for (ir::Int i = 0; i < n; ++i) {
      data.push_back(static_cast<ir::Int>(
          rng.NextBelow(static_cast<std::uint64_t>(target_elems))));
    }
  }

  auto random_affine = [&](int arr) {
    ir::AffineAccess acc;
    acc.array = arr;
    int rank = static_cast<int>(p.array(arr).dims.size());
    acc.F = ir::IntMat(rank, depth);
    acc.f.assign(static_cast<std::size_t>(rank), 0);
    for (int d = 0; d < rank && d < depth; ++d) acc.F.at(d, d) = 1;
    // Random small offset on one dimension (stencil halo; stays in bounds
    // thanks to the dimension slack).
    int d = static_cast<int>(rng.NextBelow(static_cast<std::uint64_t>(rank)));
    acc.f[static_cast<std::size_t>(d)] = static_cast<ir::Int>(rng.NextBelow(3));
    return acc;
  };

  int num_nests = 1 + static_cast<int>(rng.NextBelow(2));
  for (int n = 0; n < num_nests; ++n) {
    ir::LoopNest nest;
    nest.loops = loops;
    int num_stmts = 1 + static_cast<int>(rng.NextBelow(3));
    for (int s = 0; s < num_stmts; ++s) {
      ir::Stmt st;
      st.id = p.NextStmtId();
      st.op = static_cast<arch::Op>(rng.NextBelow(7));
      int a0 = arrays[rng.NextBelow(arrays.size())];
      int a1 = arrays[rng.NextBelow(arrays.size())];
      st.rhs0 = ir::Operand::Affine(random_affine(a0));
      if (idx_array >= 0 && depth == 1 && rng.NextBool(0.3)) {
        ir::AffineAccess ia;
        ia.array = idx_array;
        ia.F = ir::IntMat(1, depth);
        ia.F.at(0, depth - 1) = 1;
        ia.f = {0};
        st.rhs1 = ir::Operand::Indirect(ia, arrays[0]);
      } else {
        st.rhs1 = ir::Operand::Affine(random_affine(a1));
      }
      if (rng.NextBool(0.7)) {
        int aw = arrays[rng.NextBelow(arrays.size())];
        st.lhs = ir::Operand::Affine(random_affine(aw));
      } else {
        st.lhs = ir::Operand::Scalar();
      }
      nest.body.push_back(std::move(st));
    }
    p.nests.push_back(std::move(nest));
  }
  return p;
}

class FuzzIrSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzIrSeeds, CompiledProgramsPassTheIndependentAuditor) {
  arch::ArchConfig cfg;
  compiler::ArchDescription ad(cfg);
  for (compiler::Mode mode : {compiler::Mode::kBaseline, compiler::Mode::kAlgorithm1,
                              compiler::Mode::kAlgorithm2, compiler::Mode::kCoarseGrain}) {
    ir::Program prog = RandomIrProgram(GetParam());
    compiler::CompileOptions opt;
    opt.mode = mode;
    opt.verify_after = false;  // verified explicitly below
    compiler::Compile(prog, ad, opt);
    verify::Report rep = verify::VerifyProgram(prog);
    EXPECT_EQ(rep.ErrorCount(), 0)
        << "seed " << GetParam() << " mode " << compiler::ModeName(mode) << "\n"
        << prog.ToString() << rep.ToText();
  }
}

INSTANTIATE_TEST_SUITE_P(IrSeeds, FuzzIrSeeds,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                                           15, 16, 17, 18, 19, 20, 101, 202, 303, 404));

// --- parsers: every input is accepted or rejected, never a crash ---------

// A byte biased toward JSON syntax, so that random inputs get past the
// first character often enough to reach numbers, escapes and nesting.
char RandomByte(sim::Rng& rng) {
  static constexpr char kAlphabet[] = "{}[]:,\"\\ -+.eE0123456789truefalsn/u";
  return rng.NextBool(0.8) ? kAlphabet[rng.NextBelow(sizeof(kAlphabet) - 1)]
                           : static_cast<char>(rng.NextBelow(256));
}

std::string RandomBytes(sim::Rng& rng, std::size_t max_len) {
  std::string s(rng.NextBelow(max_len + 1), '\0');
  for (char& c : s) c = RandomByte(rng);
  return s;
}

// One to four random edits: overwrite, delete, duplicate or insert a span,
// or truncate.
std::string Mutate(sim::Rng& rng, std::string s) {
  int edits = 1 + static_cast<int>(rng.NextBelow(4));
  for (int e = 0; e < edits && !s.empty(); ++e) {
    std::size_t at = rng.NextBelow(s.size());
    std::size_t len = 1 + rng.NextBelow(std::min<std::size_t>(8, s.size() - at));
    switch (rng.NextBelow(5)) {
      case 0: s[at] = RandomByte(rng); break;
      case 1: s.erase(at, len); break;
      case 2: s.insert(at, s.substr(at, len)); break;
      case 3: s.insert(at, RandomBytes(rng, 4)); break;
      default: s.resize(at); break;
    }
  }
  return s;
}

// Replaces the whole value after the `n`-th ':' (a scalar, or a bracketed
// object or array) with `repl`, giving a field of the wrong type or range.
// The documents fed here have no ':' or brackets inside strings.
std::string ReplaceNthValue(const std::string& s, std::size_t n, const std::string& repl) {
  std::size_t begin = std::string::npos;
  for (std::size_t i = 0, seen = 0; i < s.size(); ++i) {
    if (s[i] == ':' && seen++ == n) {
      begin = i + 1;
      break;
    }
  }
  if (begin == std::string::npos) return s;
  std::size_t end = begin;
  for (int depth = 0; end < s.size(); ++end) {
    char c = s[end];
    if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (depth == 0) break;
      if (--depth == 0) {
        ++end;
        break;
      }
    } else if (c == ',' && depth == 0) {
      break;
    }
  }
  return s.substr(0, begin) + repl + s.substr(end);
}

const char* const kWrongTypes[] = {"\"x\"", "[]", "{}", "-1", "1.5", "1e300", "true", "null",
                                   "18446744073709551615"};

fault::FaultSchedule SeedSchedule() {
  fault::FaultSchedule s;
  s.seed = 7;
  s.link_faults.push_back({3, 100, 900, 8, 0.25});
  s.bank_faults.push_back({1, 7, 200, 800, fault::BankFaultKind::kNack});
  s.mc_pressure.push_back({1, 200, 400, 16});
  s.resilience.max_retries = 2;
  s.resilience.backoff_mult = 1.5;
  return s;
}

// An accepted document must survive Dump -> Parse -> Dump unchanged.
void ExpectJsonStable(const std::string& text) {
  json::Value v;
  if (!json::Parse(text, &v)) return;
  std::string once = json::Dump(v);
  json::Value back;
  ASSERT_TRUE(json::Parse(once, &back)) << text;
  EXPECT_EQ(json::Dump(back), once) << text;
}

// An accepted schedule must round-trip through its own ToJson.
void ExpectScheduleStable(const std::string& text) {
  fault::FaultSchedule s;
  std::string err;
  if (!fault::ParseSchedule(text, &s, &err)) {
    EXPECT_FALSE(err.empty()) << text;
    return;
  }
  fault::FaultSchedule back;
  ASSERT_TRUE(fault::ParseSchedule(s.ToJson(), &back, &err)) << text << "\n" << err;
  EXPECT_EQ(back.CanonicalString(), s.CanonicalString()) << text;
}

class FuzzParserSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzParserSeeds, JsonParseAcceptsOrRejects) {
  sim::Rng rng(GetParam());
  const std::string seeds[] = {
      SeedSchedule().ToJson(),
      R"({"a":[1,-2.5e-3,"s\n\u001f",true,false,null,{}],"b":{"c":[]}})",
      std::string(300, '[') + std::string(300, ']'),
  };
  for (int i = 0; i < 1000; ++i) {
    ExpectJsonStable(RandomBytes(rng, 48));
    for (const std::string& seed : seeds) ExpectJsonStable(Mutate(rng, seed));
  }
}

TEST_P(FuzzParserSeeds, ParseScheduleAcceptsOrRejects) {
  sim::Rng rng(GetParam());
  const std::string valid = SeedSchedule().ToJson();
  ExpectScheduleStable(valid);
  for (std::size_t n = 0; n < valid.size(); ++n) ExpectScheduleStable(valid.substr(0, n));
  for (std::size_t field = 0; field < 20; ++field) {
    for (const char* wrong : kWrongTypes) {
      ExpectScheduleStable(ReplaceNthValue(valid, field, wrong));
    }
  }
  for (int i = 0; i < 1000; ++i) {
    ExpectScheduleStable(Mutate(rng, valid));
    ExpectScheduleStable(RandomBytes(rng, 48));
  }
}

TEST_P(FuzzParserSeeds, ResultCacheLoaderAcceptsOrRejects) {
  sim::Rng rng(GetParam());
  std::string dir = ::testing::TempDir() + "/ndc-fuzz-cache-" + std::to_string(GetParam());
  std::string path = dir + "/results.jsonl";
  std::remove(path.c_str());
  harness::CellSpec spec;
  spec.workload = "md";
  spec.scale = workloads::Scale::kTest;
  harness::CellResult result;
  result.makespan = 1234;
  result.stats["noc.packets"] = 99;
  {
    harness::ResultCache cache(dir);
    ASSERT_TRUE(cache.ok());
    cache.Insert(spec, result);
  }
  std::string valid;
  {
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    while (std::fgets(buf, sizeof buf, f) != nullptr) valid += buf;
    std::fclose(f);
  }
  ASSERT_FALSE(valid.empty());
  valid.pop_back();  // the newline

  for (int round = 0; round < 100; ++round) {
    // The valid line twice (duplicates: last wins) among damaged lines.
    std::string text = valid + "\n" + valid + "\n";
    for (int i = 0; i < 8; ++i) {
      switch (rng.NextBelow(4)) {
        case 0: text += valid.substr(0, rng.NextBelow(valid.size())); break;
        case 1: text += Mutate(rng, valid); break;
        case 2:
          text += ReplaceNthValue(valid, rng.NextBelow(40),
                                  kWrongTypes[rng.NextBelow(std::size(kWrongTypes))]);
          break;
        default: text += RandomBytes(rng, 64); break;
      }
      text += '\n';
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);

    harness::ResultCache cache(dir);
    // Damaged text may carry newlines of its own: bound by lines, not edits.
    auto lines = static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
    EXPECT_LE(cache.load_errors(), lines - 2);
    // A damaged line may still load (a wrong-typed provenance field is not
    // read) and even replace the entry, but the valid key cannot vanish.
    harness::CellResult out;
    EXPECT_TRUE(cache.Lookup(spec, &out));
  }
  std::remove(path.c_str());
}

// The check every binary carried before cli::ParseUint replaced it.
std::optional<std::uint64_t> StrtoullCheck(const char* s, std::uint64_t min, std::uint64_t max) {
  char* end = nullptr;
  errno = 0;
  unsigned long long n = std::strtoull(s, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(s[0])) || *end != '\0' || errno == ERANGE ||
      n < min || n > max) {
    return std::nullopt;
  }
  return n;
}

TEST(FuzzFlags, ParseUintEdgeCases) {
  constexpr std::uint64_t kMax = UINT64_MAX;
  EXPECT_EQ(cli::ParseUint("0", 0, kMax), 0u);
  EXPECT_EQ(cli::ParseUint("007", 0, kMax), 7u);
  EXPECT_EQ(cli::ParseUint("18446744073709551615", 0, kMax), kMax);
  EXPECT_EQ(cli::ParseUint("5", 5, 5), 5u);
  for (const char* bad : {"", "-1", "+1", "-0", " 1", "1 ", "1x", "0x10", "1e3", "1.0",
                          "18446744073709551616", "99999999999999999999999"}) {
    EXPECT_EQ(cli::ParseUint(bad, 0, kMax), std::nullopt) << "'" << bad << "'";
  }
  EXPECT_EQ(cli::ParseUint("0", 1, kMax), std::nullopt);
  EXPECT_EQ(cli::ParseUint("8", 0, 7), std::nullopt);
  EXPECT_EQ(cli::ParseUint("4", 5, 9), std::nullopt);

  // Lists: every element goes through ParseUint, and none may be empty.
  using List = std::vector<std::uint64_t>;
  EXPECT_EQ(cli::ParseUintList("4", 1, INT_MAX), List({4}));
  EXPECT_EQ(cli::ParseUintList("2,4,16", 1, INT_MAX), List({2, 4, 16}));
  EXPECT_EQ(cli::ParseUintList("2147483647", 1, INT_MAX), List({2147483647}));
  for (const char* bad : {"", ",", "4,", ",4", "4,,8", "4, 8", " 4", "+3", "-3", "0",
                          "4,0", "2147483648", "4294967298", "4;8", "4x"}) {
    EXPECT_EQ(cli::ParseUintList(bad, 1, INT_MAX), std::nullopt) << "'" << bad << "'";
  }
}

TEST_P(FuzzParserSeeds, ParseUintAgreesWithTheStrtoullCheck) {
  sim::Rng rng(GetParam());
  const std::string seeds[] = {"0", "1", "42", "007", "-1", "+7", " 5", "5x",
                               "18446744073709551615", "18446744073709551616",
                               "123456789012345678901234567890"};
  for (int i = 0; i < 2000; ++i) {
    std::string text = i % 2 == 0 ? Mutate(rng, seeds[rng.NextBelow(std::size(seeds))])
                                   : RandomBytes(rng, 24);
    // Bounds: open, positive-only, a small range, or a range hugging the
    // parsed value so both edges are hit.
    std::uint64_t min = 0, max = UINT64_MAX;
    std::uint64_t v = std::strtoull(text.c_str(), nullptr, 10);
    switch (rng.NextBelow(4)) {
      case 0: break;
      case 1: min = 1; break;
      case 2: max = rng.NextBelow(100); break;
      default:
        min = v - std::min<std::uint64_t>(v, rng.NextBelow(2));
        max = v + (v == UINT64_MAX ? 0 : rng.NextBelow(2));
        if (rng.NextBool(0.5)) std::swap(min, max);
        break;
    }
    EXPECT_EQ(cli::ParseUint(text.c_str(), min, max), StrtoullCheck(text.c_str(), min, max))
        << "'" << text << "' in [" << min << ", " << max << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(ParserSeeds, FuzzParserSeeds, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace ndc::runtime
