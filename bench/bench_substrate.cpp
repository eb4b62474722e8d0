// Substrate throughput benchmark: events/sec, ns/event, and allocs/event
// for the discrete-event core (calendar EventQueue vs the seed binary-heap
// LegacyEventQueue, plus a wide chain shaped like a whole-machine run),
// and end-to-end MemCtrl and NoC event streams; whole-machine runs (the
// `machine:*` rows); and the code generator's heap traffic per emitted
// instruction (the `lower:*` rows, whose "events" are instructions).
//
// Emits a machine-readable JSON report (default BENCH_substrate.json) that
// CI's substrate-perf job checks against four floors:
//   - speedup_vs_legacy >= --min-speedup (calendar vs seed queue, same box)
//   - allocs_per_event ~= 0 on the scheduling benches and the NoC stream
//     (the hot ScheduleAfter path and a packet's flight must not touch the
//     heap, near or far events alike)
//   - machine_allocs_per_event, the worst `machine:*` row, stays near 0
//     (runtime::Machine::Run does no heap work per simulated event)
//   - lower_allocs_per_instr, the worst `lower:*` row, stays near 0
//     (compiler::Lower does no heap work per iteration or instruction)
//
// Allocation counts come from an instrumented global operator new/delete in
// this translation unit. The stream benches sample after a warmup pass so
// one-time pool growth is excluded (steady-state behaviour is what
// the floor is about); a `machine:*` row counts everything inside one
// Machine::Run, growth of a fresh Machine's pools included.
//
// Usage: bench_substrate [--events=N] [--out=FILE]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "cli/flags.hpp"
#include "compiler/codegen.hpp"
#include "compiler/pipeline.hpp"
#include "mem/address_map.hpp"
#include "mem/dram.hpp"
#include "mem/memctrl.hpp"
#include "ndc/machine.hpp"
#include "ndc/policy.hpp"
#include "noc/geometry.hpp"
#include "noc/network.hpp"
#include "sim/event_queue.hpp"
#include "sim/legacy_event_queue.hpp"
#include "sim/rng.hpp"
#include "workloads/sharded.hpp"
#include "workloads/workloads.hpp"

// ---------------------------------------------------------------------------
// Instrumented allocator: every heap allocation in the process bumps a
// counter. Single global, relaxed atomics (the benches are single-threaded;
// atomics just keep the operators formally thread-safe).

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace ndc {
namespace {

using Clock = std::chrono::steady_clock;

struct BenchResult {
  std::string name;
  std::uint64_t events = 0;
  double seconds = 0.0;
  std::uint64_t allocs = 0;

  double events_per_sec() const { return seconds > 0 ? static_cast<double>(events) / seconds : 0; }
  double ns_per_event() const {
    return events > 0 ? seconds * 1e9 / static_cast<double>(events) : 0;
  }
  double allocs_per_event() const {
    return events > 0 ? static_cast<double>(allocs) / static_cast<double>(events) : 0;
  }
};

/// Times `run()` and attributes the executed-event delta and heap
/// allocations inside it to one named result row.
template <typename RunFn, typename ExecutedFn>
BenchResult Measure(const char* name, RunFn&& run, ExecutedFn&& executed) {
  BenchResult r;
  r.name = name;
  std::uint64_t e0 = executed();
  std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  auto t0 = Clock::now();
  run();
  auto t1 = Clock::now();
  r.events = executed() - e0;
  r.allocs = g_allocs.load(std::memory_order_relaxed) - a0;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  return r;
}

// --- Pure scheduling: self-rescheduling chains of small-delay events -------
// This is the simulator's hot path (MemCtrl completions, NoC hops): a small
// callback scheduled a few cycles ahead. The functor is 24 bytes and
// trivially copyable, so it fits one event node.

template <typename Queue>
struct ChainEvent {
  Queue* q;
  std::uint64_t* remaining;
  sim::Cycle delay;
  void operator()() const {
    if (*remaining == 0) return;
    --*remaining;
    q->ScheduleAfter(delay, ChainEvent{q, remaining, delay});
  }
};

template <typename Queue>
BenchResult ChainBench(const char* name, std::uint64_t events) {
  Queue q;
  std::uint64_t remaining = 0;
  auto seed = [&] {
    for (sim::Cycle c = 0; c < 64; ++c) {
      q.ScheduleAfter(1 + c % 13, ChainEvent<Queue>{&q, &remaining, 1 + c % 13});
    }
  };
  remaining = events / 10;  // warmup: grow the node pool off the clock
  seed();
  q.RunUntilEmpty();
  remaining = events;
  seed();
  return Measure(name, [&] { q.RunUntilEmpty(); }, [&] { return q.executed(); });
}

// --- Wide chain: the simulator's own schedule profile -----------------------
// A whole-machine run keeps about a dozen events live per cycle, with delays
// from one cycle (core dispatch) to a few hundred (DRAM round trips).
// calendar_chain's 64 chains over delays 1..13 touch a handful of wheel
// buckets; 2400 chains with delays spread uniformly over 1..400 (~12 events
// per cycle) use the whole wheel, so this row sees its cache footprint.
// Report-only: no floor reads it.

struct WideChainEvent {
  sim::EventQueue* q;
  std::uint64_t* remaining;
  std::uint64_t state;  ///< LCG state choosing the next delay
  void operator()() const {
    if (*remaining == 0) return;
    --*remaining;
    std::uint64_t next = state * 6364136223846793005ull + 1442695040888963407ull;
    q->ScheduleAfter(1 + (next >> 33) % 400, WideChainEvent{q, remaining, next});
  }
};

BenchResult WideChainBench(std::uint64_t events) {
  sim::EventQueue q;
  std::uint64_t remaining = 0;
  auto seed = [&] {
    for (std::uint64_t c = 0; c < 2400; ++c) {
      q.ScheduleAfter(1 + c % 400, WideChainEvent{&q, &remaining, c});
    }
  };
  remaining = events / 10;
  seed();
  q.RunUntilEmpty();
  remaining = events;
  seed();
  return Measure("calendar_wide_chain", [&] { q.RunUntilEmpty(); },
                 [&] { return q.executed(); });
}

// --- Mixed horizon: mostly near events, 1-in-8 beyond the wheel window -----

struct MixedEvent {
  sim::EventQueue* q;
  std::uint64_t* remaining;
  sim::Rng* rng;
  void operator()() const {
    if (*remaining == 0) return;
    --*remaining;
    sim::Cycle d = (rng->Next() & 7) == 0 ? 5000 + rng->NextBelow(20000)
                                          : 1 + rng->NextBelow(32);
    q->ScheduleAfter(d, MixedEvent{q, remaining, rng});
  }
};

BenchResult MixedBench(std::uint64_t events) {
  sim::EventQueue q;
  sim::Rng rng(2021);
  std::uint64_t remaining = 0;
  auto seed = [&] {
    for (sim::Cycle c = 0; c < 64; ++c) {
      q.ScheduleAfter(1 + c % 17, MixedEvent{&q, &remaining, &rng});
    }
  };
  remaining = events / 10;
  seed();
  q.RunUntilEmpty();
  remaining = events;
  seed();
  return Measure("calendar_mixed_horizon", [&] { q.RunUntilEmpty(); },
                 [&] { return q.executed(); });
}

// --- End-to-end component streams ------------------------------------------

// Closed loop: each completion enqueues another random read, keeping every
// bank queue busy (the FR-FCFS pick always has material to scan). The
// completion captures one pointer (the loop state).
struct McLoop {
  mem::MemCtrl* mc;
  sim::Rng* rng;
  std::uint64_t remaining = 0;
  std::uint64_t next_tag = 1;

  void Read() {
    mc->EnqueueRead(next_tag++, rng->NextBelow(1u << 28) * 64,
                    [this](std::uint64_t, sim::Cycle) { Done(); });
  }
  void Done() {
    if (remaining == 0) return;
    --remaining;
    Read();
  }
};

BenchResult MemCtrlBench(std::uint64_t requests) {
  mem::AddressMap amap;
  mem::DramParams dram;
  sim::EventQueue eq;
  mem::MemCtrl mc(0, amap, dram, eq);
  sim::Rng rng(7);
  McLoop loop{&mc, &rng};
  auto seed = [&] {
    for (int i = 0; i < 128; ++i) loop.Read();
  };
  loop.remaining = requests / 10;
  seed();
  eq.RunUntilEmpty();
  loop.remaining = requests;
  seed();
  return Measure("memctrl_stream", [&] { eq.RunUntilEmpty(); },
                 [&] { return eq.executed(); });
}

// Closed loop: each delivery injects a new random packet. The completion
// captures one pointer (the loop state), so the row measures the network's
// own per-packet work.
struct NocLoop {
  noc::Network* net;
  sim::Rng* rng;
  std::uint64_t remaining = 0;

  void Inject(int size_bytes) {
    noc::Packet p;
    p.src = static_cast<sim::NodeId>(rng->NextBelow(25));
    p.dst = static_cast<sim::NodeId>(rng->NextBelow(25));
    p.size_bytes = size_bytes;
    net->Send(p, [this](const noc::Packet&, sim::Cycle) { Delivered(); });
  }
  void Delivered() {
    if (remaining == 0) return;
    --remaining;
    Inject(8 + static_cast<int>(rng->NextBelow(4)) * 8);
  }
};

BenchResult NocBench(std::uint64_t packets) {
  sim::EventQueue eq;
  noc::Mesh mesh(5, 5);
  noc::Network net(mesh, eq);
  sim::Rng rng(13);
  NocLoop loop{&net, &rng};
  auto seed = [&] {
    for (int i = 0; i < 64; ++i) loop.Inject(8);
  };
  loop.remaining = packets / 10;
  seed();
  eq.RunUntilEmpty();
  loop.remaining = packets;
  seed();
  return Measure("noc_stream", [&] { eq.RunUntilEmpty(); }, [&] { return eq.executed(); });
}

// --- Whole-machine runs: heap allocations per simulated event --------------
// swim at small scale as the baseline, Default (always-wait) and
// Algorithm-2 cells of Figure 4, and two sync scenarios (lock-guarded
// reduction, post/wait wavefront), all on the 5x5 mesh. Building,
// lowering, constructing the Machine and LoadProgram stay off the clock:
// the row counts what Machine::Run itself does per event.

BenchResult MachineBench(const std::string& name, const arch::ArchConfig& cfg,
                         const std::vector<arch::Trace>& traces, runtime::Policy* policy) {
  runtime::MachineOptions opts;
  opts.policy = policy;
  runtime::Machine m(cfg, opts);
  m.LoadProgram(traces);
  std::uint64_t events = 0;
  return Measure(("machine:" + name).c_str(), [&] { events = m.Run().events; },
                 [&] { return events; });
}

std::vector<BenchResult> MachineBenches() {
  arch::ArchConfig cfg;
  std::vector<BenchResult> rows;
  ir::Program swim = workloads::BuildWorkload("swim", workloads::Scale::kSmall);
  const std::vector<arch::Trace> base = compiler::Lower(swim, cfg.num_nodes(), &cfg).traces;
  rows.push_back(MachineBench("swim.baseline", cfg, base, nullptr));
  runtime::AlwaysWaitPolicy always(cfg);
  rows.push_back(MachineBench("swim.default", cfg, base, &always));
  compiler::CompileOptions opt;
  opt.mode = compiler::Mode::kAlgorithm2;
  compiler::Compile(swim, compiler::ArchDescription(cfg), opt);
  const std::vector<arch::Trace> compiled = compiler::Lower(swim, cfg.num_nodes(), &cfg).traces;
  rows.push_back(MachineBench("swim.algorithm-2", cfg, compiled, nullptr));
  for (const char* name : {"shard.reduce.lock", "shard.stencil.wave"}) {
    ir::Program prog =
        workloads::BuildShardedWorkload(name, workloads::Scale::kSmall, cfg.num_nodes());
    const std::vector<arch::Trace> traces = compiler::Lower(prog, cfg.num_nodes(), &cfg).traces;
    rows.push_back(MachineBench(name, cfg, traces, nullptr));
  }
  return rows;
}

// --- Code generation: heap allocations per emitted instruction -------------
// Lowers every shard.* scenario (atomic, lock, post/wait and barrier sync
// included) and swim after Algorithm 2 (pre-computes gated per iteration by
// the CME predictor), all at full scale on the 5x5 mesh. Building and
// compiling the programs stays off the clock.

BenchResult LowerBench(const std::string& name, const ir::Program& prog,
                       const arch::ArchConfig& cfg) {
  std::uint64_t instrs = 0;
  return Measure(("lower:" + name).c_str(),
                 [&] { instrs = compiler::Lower(prog, cfg.num_nodes(), &cfg).total_instrs; },
                 [&] { return instrs; });
}

std::vector<BenchResult> LowerBenches() {
  arch::ArchConfig cfg;
  std::vector<BenchResult> rows;
  for (const std::string& name : workloads::ShardedNames()) {
    rows.push_back(LowerBench(
        name, workloads::BuildShardedWorkload(name, workloads::Scale::kFull, cfg.num_nodes()),
        cfg));
  }
  ir::Program swim = workloads::BuildWorkload("swim", workloads::Scale::kFull);
  compiler::CompileOptions opt;
  opt.mode = compiler::Mode::kAlgorithm2;
  compiler::Compile(swim, compiler::ArchDescription(cfg), opt);
  rows.push_back(LowerBench("swim.algorithm-2", swim, cfg));
  return rows;
}

// ---------------------------------------------------------------------------

void WriteJson(const std::string& path, const std::vector<BenchResult>& rows,
               double speedup, double machine_allocs, double lower_allocs,
               std::uint64_t events_target) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_substrate: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"benchmark\": \"bench_substrate\",\n");
  std::fprintf(f, "  \"events_target\": %llu,\n",
               static_cast<unsigned long long>(events_target));
  std::fprintf(f, "  \"speedup_vs_legacy\": %.3f,\n", speedup);
  std::fprintf(f, "  \"machine_allocs_per_event\": %.6f,\n", machine_allocs);
  std::fprintf(f, "  \"lower_allocs_per_instr\": %.6f,\n", lower_allocs);
  std::fprintf(f, "  \"benches\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchResult& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"events\": %llu, \"seconds\": %.6f, "
                 "\"events_per_sec\": %.0f, \"ns_per_event\": %.2f, "
                 "\"allocs\": %llu, \"allocs_per_event\": %.6f}%s\n",
                 r.name.c_str(), static_cast<unsigned long long>(r.events), r.seconds,
                 r.events_per_sec(), r.ns_per_event(),
                 static_cast<unsigned long long>(r.allocs), r.allocs_per_event(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

[[noreturn]] void UsageAndExit(const char* prog) {
  std::fprintf(stderr, "usage: %s [--events=N] [--out=FILE]\n", prog);
  std::exit(2);
}

int Main(int argc, char** argv) {
  std::uint64_t events = 2'000'000;
  std::string out = "BENCH_substrate.json";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--events=", 9) == 0) {
      std::optional<std::uint64_t> n = ndc::cli::ParseUintFlag(
          "bench_substrate", "--events", arg + 9, 1, UINT64_MAX, "a positive integer");
      if (!n) UsageAndExit(argv[0]);
      events = *n;
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      out = arg + 6;
    } else {
      std::fprintf(stderr, "bench_substrate: unknown argument '%s'\n", arg);
      UsageAndExit(argv[0]);
    }
  }

  std::vector<BenchResult> rows;
  rows.push_back(ChainBench<sim::EventQueue>("calendar_chain", events));
  rows.push_back(ChainBench<sim::LegacyEventQueue>("legacy_chain", events));
  rows.push_back(WideChainBench(events));
  rows.push_back(MixedBench(events));
  rows.push_back(MemCtrlBench(events / 4));
  rows.push_back(NocBench(events / 8));
  double machine_allocs = 0.0;
  for (BenchResult& r : MachineBenches()) {
    machine_allocs = std::max(machine_allocs, r.allocs_per_event());
    rows.push_back(std::move(r));
  }
  double lower_allocs = 0.0;
  for (BenchResult& r : LowerBenches()) {
    lower_allocs = std::max(lower_allocs, r.allocs_per_event());
    rows.push_back(std::move(r));
  }

  double speedup = rows[1].events_per_sec() > 0
                       ? rows[0].events_per_sec() / rows[1].events_per_sec()
                       : 0.0;

  std::printf("# bench_substrate  (events=%llu)\n",
              static_cast<unsigned long long>(events));
  std::printf("%-28s %14s %12s %12s %16s\n", "bench", "events", "Mev/s", "ns/event",
              "allocs/event");
  for (const BenchResult& r : rows) {
    std::printf("%-28s %14llu %12.2f %12.2f %16.6f\n", r.name.c_str(),
                static_cast<unsigned long long>(r.events), r.events_per_sec() / 1e6,
                r.ns_per_event(), r.allocs_per_event());
  }
  std::printf("speedup_vs_legacy = %.2fx\n", speedup);
  std::printf("machine_allocs_per_event = %.6f\n", machine_allocs);
  std::printf("lower_allocs_per_instr = %.6f\n", lower_allocs);
  WriteJson(out, rows, speedup, machine_allocs, lower_allocs, events);
  return 0;
}

}  // namespace
}  // namespace ndc

int main(int argc, char** argv) { return ndc::Main(argc, argv); }
