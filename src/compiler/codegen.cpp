#include "compiler/codegen.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <set>
#include <span>

#include "analysis/cme.hpp"

namespace ndc::compiler {
namespace {

// Emission phases give the within-slot program order: a statement's index
// loads precede its operand loads, then the computation, then the store.
enum Phase : int {
  kIdx0 = 0,
  kLoad0 = 1,
  kIdx1 = 2,
  kLoad1 = 3,
  kComputeP = 4,
  kIdxStore = 5,
  kStoreP = 6,
};

struct Emission {
  ir::Int slot = 0;   // position in the core's iteration sequence
  int stmt = 0;       // body index
  Phase phase = kLoad0;
  ir::Int j = 0;      // index of the computation's iteration in the core list

  bool operator<(const Emission& o) const {
    if (slot != o.slot) return slot < o.slot;
    if (j != o.j) return j < o.j;
    if (stmt != o.stmt) return stmt < o.stmt;
    return phase < o.phase;
  }
};

// Where each iteration's instructions landed in the trace, for wiring
// dependences: per local iteration j, each statement's two operand loads,
// its lock acquire and its computation, then the iteration's wait and its
// last instruction. -1 marks "not emitted". One flat table, reused by every
// core and nest of a lowering.
class DepTable {
 public:
  enum Slot : int { kOperand0 = 0, kOperand1 = 1, kAcquire = 2, kComputed = 3 };

  void Reset(std::size_t iters, std::size_t stmts) {
    stmts_ = stmts;
    stride_ = stmts * kPerStmt + 2;
    at_.assign(iters * stride_, -1);
  }
  std::int32_t& at(int stmt, ir::Int j, int slot) {
    return at_[Row(j) + static_cast<std::size_t>(stmt) * kPerStmt + static_cast<std::size_t>(slot)];
  }
  std::int32_t& wait(ir::Int j) { return at_[Row(j) + stmts_ * kPerStmt]; }
  std::int32_t& last(ir::Int j) { return at_[Row(j) + stmts_ * kPerStmt + 1]; }

 private:
  static constexpr std::size_t kPerStmt = 4;
  std::size_t Row(ir::Int j) const { return static_cast<std::size_t>(j) * stride_; }
  std::size_t stmts_ = 0;
  std::size_t stride_ = 0;
  std::vector<std::int32_t> at_;
};

// Deterministic per-iteration reduction payload. Both lowering schemes
// (remote fetch-add and lock-guarded host RMW) contribute the same value
// for the same iteration, so the engines' final value maps agree across
// schemes — the cross-scheme equivalence the sync tests assert.
ir::Int ReductionPayload(std::span<const ir::Int> iter) {
  return 1 + ((iter.front() * 31 + iter.back()) % 13);
}

bool PostWait(const ir::LoopNest& nest) {
  return nest.sync.kind == ir::SyncKind::kPostWait && nest.sync.sync_array >= 0;
}

bool BarrierAfter(const ir::LoopNest& nest) {
  return nest.sync.barrier_after && nest.sync.sync_array >= 0;
}

// Most instructions one iteration of `nest` emits (every address in bounds),
// so each core's trace can be sized once.
std::size_t MaxInstrsPerIteration(const ir::LoopNest& nest) {
  auto load = [](const ir::Operand& o) -> std::size_t {
    if (!o.IsMemory()) return 0;
    return o.kind == ir::Operand::Kind::kIndirect ? 2 : 1;  // index load + data load
  };
  std::size_t n = PostWait(nest) ? 2 : 0;  // wait + post
  for (const ir::Stmt& st : nest.body) {
    switch (st.sync.kind) {
      case ir::SyncKind::kNdcAtomic:
        n += load(st.rhs1) + 1;  // fetch-add
        break;
      case ir::SyncKind::kHostLock:
        n += load(st.rhs1) + load(st.rhs0) + 4;  // acquire, compute, store, release
        break;
      default:
        n += load(st.rhs0) + load(st.rhs1) + 1 + (st.lhs.IsMemory() ? 1 : 0);
        break;
    }
  }
  return n;
}

// Index of the row of `rows` (a nest's iterations in lexicographic order,
// `depth` entries each) equal to `iter` with its outer index moved back by
// `distance`, or -1 when that iteration is not in the nest.
std::int64_t FindProducerRow(std::span<const ir::Int> rows, std::size_t depth,
                             std::span<const ir::Int> iter, ir::Int distance) {
  auto compare = [&](std::size_t r) {
    for (std::size_t d = 0; d < depth; ++d) {
      ir::Int want = d == 0 ? iter[0] - distance : iter[d];
      ir::Int have = rows[r * depth + d];
      if (have != want) return have < want ? -1 : 1;
    }
    return 0;
  };
  std::size_t lo = 0;
  std::size_t hi = rows.size() / depth;
  while (lo < hi) {
    std::size_t mid = lo + (hi - lo) / 2;
    if (compare(mid) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < rows.size() / depth && compare(lo) == 0 ? static_cast<std::int64_t>(lo) : -1;
}

}  // namespace

int CoreForIteration(const ir::LoopNest& nest, std::span<const ir::Int> iter, int num_cores) {
  const ir::Loop& outer = nest.loops.front();
  ir::Int span = outer.hi - outer.lo + 1;
  ir::Int chunk = (span + num_cores - 1) / num_cores;
  ir::Int v = iter[0] - outer.lo;
  return static_cast<int>(std::min<ir::Int>(v / std::max<ir::Int>(1, chunk), num_cores - 1));
}

CodegenResult Lower(const ir::Program& prog, int num_cores, const arch::ArchConfig* cfg) {
  const auto cores = static_cast<std::size_t>(num_cores);
  CodegenResult out;
  out.traces.assign(cores, {});

  // Each nest's iterations form one flat block (depth entries per row) in
  // original, lexicographic order. CoreForIteration is monotone in the
  // outer index, so core c runs the contiguous rows
  // [first[n][c], first[n][c + 1]) of nest n. Counting them up front sizes
  // every core's trace once.
  std::vector<std::vector<std::size_t>> first(prog.nests.size(),
                                              std::vector<std::size_t>(cores + 1, 0));
  {
    std::vector<std::size_t> capacity(cores, 0);
    for (std::size_t n = 0; n < prog.nests.size(); ++n) {
      const ir::LoopNest& nest = prog.nests[n];
      std::vector<std::size_t>& f = first[n];
      nest.ForEachIteration([&](const ir::IntVec& iter) {
        ++f[static_cast<std::size_t>(CoreForIteration(nest, iter, num_cores)) + 1];
      });
      const std::size_t per_iter = MaxInstrsPerIteration(nest);
      for (std::size_t c = 0; c < cores; ++c) {
        capacity[c] += f[c + 1] * per_iter + (BarrierAfter(nest) && f[c + 1] > 0 ? 1 : 0);
        f[c + 1] += f[c];
      }
    }
    for (std::size_t c = 0; c < cores; ++c) out.traces[c].reserve(capacity[c]);
  }

  // Scratch reused by every nest and core.
  std::vector<ir::Int> block;     // the nest's iterations
  std::vector<ir::Int> keys;      // T*I per iteration of one core
  std::vector<std::size_t> perm;  // that core's iterations in T*I order
  std::vector<ir::Int> sorted;    // its rows, permuted
  std::vector<Emission> emissions;
  DepTable deps;

  std::set<int> warm_arrays;
  for (std::size_t n = 0; n < prog.nests.size(); ++n) {
    const ir::LoopNest& nest = prog.nests[n];
    const std::vector<std::size_t>& f = first[n];
    const auto depth = static_cast<std::size_t>(nest.depth());
    const auto nstmts = static_cast<int>(nest.body.size());

    // Per-iteration CME gate for NDC-annotated statements: the pre-compute
    // is emitted only where both operands are predicted to miss the L1
    // (the paper's compiler "first checks whether x in S1 and y in S2
    // result in L1 misses"); other instances execute conventionally.
    std::unique_ptr<analysis::CmePredictor> cme;
    for (const ir::Stmt& st : nest.body) {
      if (st.ndc.offload) {
        analysis::CacheSpec l1 = cfg ? analysis::CacheSpec::From(cfg->l1) : analysis::CacheSpec{};
        analysis::CacheSpec l2 = cfg ? analysis::CacheSpec::From(cfg->l2)
                                     : analysis::CacheSpec{512 * 1024, 256, 64};
        cme = std::make_unique<analysis::CmePredictor>(prog, nest, l1, l2, num_cores, warm_arrays);
        break;
      }
    }

    block.clear();
    block.reserve(f[cores] * depth);
    nest.ForEachIteration(
        [&](const ir::IntVec& iter) { block.insert(block.end(), iter.begin(), iter.end()); });

    // Post/wait DOACROSS lowering needs, for each iteration, the core that
    // runs its producer and the producer's local position (the wait
    // threshold is its 1-based position). Sync-annotated nests never carry
    // a schedule transform (the pipeline refuses transforms on annotated
    // nests), so positions in the partition order are final.
    const bool postwait = PostWait(nest);
    int participants = 0;
    if (BarrierAfter(nest)) {
      for (std::size_t c = 0; c < cores; ++c) participants += f[c + 1] > f[c] ? 1 : 0;
    }

    for (int core = 0; core < num_cores; ++core) {
      const std::size_t begin = f[static_cast<std::size_t>(core)];
      const std::size_t count = f[static_cast<std::size_t>(core) + 1] - begin;
      if (count == 0) continue;
      const ir::Int* rows = block.data() + begin * depth;
      if (nest.transform.has_value()) {
        // Execute in lexicographic order of T*I; equal keys keep their
        // original order.
        const ir::IntMat& T = *nest.transform;
        const auto kd = static_cast<std::size_t>(T.rows());
        keys.assign(count * kd, 0);
        for (std::size_t j = 0; j < count; ++j) {
          for (std::size_t r = 0; r < kd; ++r) {
            ir::Int k = 0;
            for (std::size_t c = 0; c < depth; ++c) {
              k += T.at(static_cast<int>(r), static_cast<int>(c)) * rows[j * depth + c];
            }
            keys[j * kd + r] = k;
          }
        }
        perm.resize(count);
        std::iota(perm.begin(), perm.end(), std::size_t{0});
        std::sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
          const ir::Int* ka = keys.data() + a * kd;
          const ir::Int* kb = keys.data() + b * kd;
          auto [pa, pb] = std::mismatch(ka, ka + kd, kb);
          return pa != ka + kd ? *pa < *pb : a < b;
        });
        sorted.resize(count * depth);
        for (std::size_t j = 0; j < count; ++j) {
          std::copy_n(rows + perm[j] * depth, depth, sorted.data() + j * depth);
        }
        rows = sorted.data();
      }
      auto iter_at = [&](ir::Int j) {
        return std::span<const ir::Int>(rows + static_cast<std::size_t>(j) * depth, depth);
      };
      auto m = static_cast<ir::Int>(count);
      auto clamp_slot = [m](ir::Int s) { return std::clamp<ir::Int>(s, 0, m - 1); };

      emissions.clear();
      for (int s = 0; s < nstmts; ++s) {
        const ir::Stmt& st = nest.body[static_cast<std::size_t>(s)];
        if (st.sync.kind == ir::SyncKind::kNdcAtomic) {
          // The RMW collapses to one remote fetch-add: load the contributed
          // operand, then ship the delta to the sync engine. No local
          // accumulator load, compute, or store is emitted.
          for (ir::Int j = 0; j < m; ++j) {
            if (st.rhs1.IsMemory()) emissions.push_back({j, s, kLoad1, j});
            emissions.push_back({j, s, kComputeP, j});
          }
          continue;
        }
        if (st.sync.kind == ir::SyncKind::kHostLock) {
          // Lock-guarded host RMW: the data load stays outside the critical
          // section; acquire -> accumulator load -> compute -> store ->
          // release. Phase values only encode within-slot order here (the
          // data load reuses kLoad0's slot so it can overlap the acquire).
          for (ir::Int j = 0; j < m; ++j) {
            if (st.rhs1.IsMemory()) emissions.push_back({j, s, kLoad0, j});
            emissions.push_back({j, s, kIdx1, j});  // lock acquire
            if (st.rhs0.IsMemory()) emissions.push_back({j, s, kLoad1, j});
            emissions.push_back({j, s, kComputeP, j});
            emissions.push_back({j, s, kStoreP, j});  // store + release
          }
          continue;
        }
        ir::Int lead0 = st.ndc.offload ? st.ndc.lead0 : 0;
        ir::Int lead1 = st.ndc.offload ? st.ndc.lead1 : 0;
        for (ir::Int j = 0; j < m; ++j) {
          ir::Int slot0 = clamp_slot(j - lead0);
          ir::Int slot1 = clamp_slot(j - lead1);
          ir::Int slotc = std::max(slot0, slot1);
          if (st.rhs0.IsMemory()) {
            if (st.rhs0.kind == ir::Operand::Kind::kIndirect) {
              emissions.push_back({slot0, s, kIdx0, j});
            }
            emissions.push_back({slot0, s, kLoad0, j});
          }
          if (st.rhs1.IsMemory()) {
            if (st.rhs1.kind == ir::Operand::Kind::kIndirect) {
              emissions.push_back({slot1, s, kIdx1, j});
            }
            emissions.push_back({slot1, s, kLoad1, j});
          }
          emissions.push_back({slotc, s, kComputeP, j});
          if (st.lhs.IsMemory()) {
            if (st.lhs.kind == ir::Operand::Kind::kIndirect) {
              emissions.push_back({slotc, s, kIdxStore, j});
            }
            emissions.push_back({slotc, s, kStoreP, j});
          }
        }
      }
      if (postwait) {
        // Pseudo-statements bracketing each iteration: a wait (stmt -1,
        // sorts before every body statement of the slot) and a post
        // (stmt == body.size(), sorts after).
        for (ir::Int j = 0; j < m; ++j) {
          emissions.push_back({j, -1, kIdx0, j});
          emissions.push_back({j, nstmts, kStoreP, j});
        }
      }
      std::stable_sort(emissions.begin(), emissions.end());

      arch::Trace& trace = out.traces[static_cast<std::size_t>(core)];
      const std::size_t nest_base = trace.size();
      deps.Reset(count, nest.body.size());

      auto emit_operand_load = [&](const ir::Stmt& st, int s, const ir::Operand& op, ir::Int j,
                                   int which) {
        std::span<const ir::Int> iter = iter_at(j);
        auto addr = prog.ResolveAddr(op, iter);
        if (!addr.has_value()) return;
        std::int32_t dep = -1;
        if (op.kind == ir::Operand::Kind::kIndirect) {
          // Emit the index-array load first; the data load depends on it.
          // A resolved address implies an in-bounds index subscript.
          const ir::Array& idx_arr = prog.array(op.access.array);
          arch::Instr il = arch::MakeLoad(
              idx_arr.base + static_cast<sim::Addr>(*prog.ElementIndex(op.access, iter)) *
                                 static_cast<sim::Addr>(idx_arr.elem_bytes));
          il.pc = st.id * 16 + static_cast<std::uint32_t>(which) * 2;
          dep = static_cast<std::int32_t>(trace.size());
          trace.push_back(il);
        }
        // Post/wait ordering: the iteration's loads may not leave the core
        // before its wait has been granted.
        if (dep < 0) dep = deps.wait(j);
        arch::Instr ld = arch::MakeLoad(*addr, dep);
        ld.pc = st.id * 16 + static_cast<std::uint32_t>(which) * 2 + 1;
        deps.at(s, j, which) = static_cast<std::int32_t>(trace.size());
        trace.push_back(ld);
      };

      // Sync-lowered reduction statements. kNdcAtomic: the data load feeds
      // one remote fetch-add carrying the iteration's payload. kHostLock:
      // acquire -> guarded load/compute/store (never NDC-offloaded: the
      // accumulator line must not meet in-network while a lock orders it)
      // -> release carrying the payload for the engine's value map.
      auto emit_sync_stmt = [&](const Emission& e, const ir::Stmt& st,
                                std::span<const ir::Int> iter) {
        auto lhs_addr = prog.ResolveAddr(st.lhs, iter);
        if (st.sync.kind == ir::SyncKind::kNdcAtomic) {
          if (e.phase == kLoad1) {
            emit_operand_load(st, e.stmt, st.rhs1, e.j, 1);
          } else if (e.phase == kComputeP && lhs_addr.has_value()) {
            arch::Instr sy =
                arch::MakeSync(sync::SyncOp::kAtomicAdd, *lhs_addr, ReductionPayload(iter),
                               deps.at(e.stmt, e.j, DepTable::kOperand1));
            sy.pc = st.id * 16 + kComputeP;
            trace.push_back(sy);
          }
          return;
        }
        switch (e.phase) {
          case kLoad0:  // data load, outside the critical section
            emit_operand_load(st, e.stmt, st.rhs1, e.j, 1);
            break;
          case kIdx1: {  // lock acquire on the accumulator cell
            if (!lhs_addr.has_value()) break;
            deps.at(e.stmt, e.j, DepTable::kAcquire) = static_cast<std::int32_t>(trace.size());
            arch::Instr sy = arch::MakeSync(sync::SyncOp::kLockAcquire, *lhs_addr);
            sy.pc = st.id * 16 + kIdx1;
            trace.push_back(sy);
            break;
          }
          case kLoad1: {  // accumulator load, gated on the acquire
            emit_operand_load(st, e.stmt, st.rhs0, e.j, 0);
            std::int32_t acq = deps.at(e.stmt, e.j, DepTable::kAcquire);
            std::int32_t ld = deps.at(e.stmt, e.j, DepTable::kOperand0);
            if (ld >= 0 && acq >= 0 && trace[static_cast<std::size_t>(ld)].dep0 < 0) {
              trace[static_cast<std::size_t>(ld)].dep0 = acq;
            }
            break;
          }
          case kComputeP: {
            arch::Instr ci = arch::MakeCompute(
                st.op, deps.at(e.stmt, e.j, DepTable::kOperand0),
                deps.at(e.stmt, e.j, DepTable::kOperand1),
                /*candidate=*/false, st.id * 16 + kComputeP, st.id);
            deps.at(e.stmt, e.j, DepTable::kComputed) = static_cast<std::int32_t>(trace.size());
            trace.push_back(ci);
            break;
          }
          case kStoreP: {
            if (!lhs_addr.has_value()) break;
            arch::Instr si =
                arch::MakeStore(*lhs_addr, deps.at(e.stmt, e.j, DepTable::kComputed));
            si.pc = st.id * 16 + kStoreP;
            std::int32_t st_idx = static_cast<std::int32_t>(trace.size());
            trace.push_back(si);
            arch::Instr rel = arch::MakeSync(sync::SyncOp::kLockRelease, *lhs_addr,
                                             ReductionPayload(iter), st_idx);
            rel.pc = st.id * 16 + kStoreP;
            trace.push_back(rel);
            break;
          }
          default:
            break;
        }
      };

      for (const Emission& e : emissions) {
        std::span<const ir::Int> iter = iter_at(e.j);
        if (e.stmt < 0) {
          // Wait pseudo-statement: consume the cross-core post of the
          // producing iteration one witness distance upstream. Same-core
          // producers are already ordered by the trace; they need no wait.
          std::int64_t prod = FindProducerRow(block, depth, iter, nest.sync.distance);
          if (prod < 0) continue;
          int prod_core = CoreForIteration(
              nest, std::span<const ir::Int>(block).subspan(static_cast<std::size_t>(prod) * depth),
              num_cores);
          if (prod_core == core) continue;
          const ir::Array& sa = prog.array(nest.sync.sync_array);
          sim::Addr paddr = sa.AddrOf({static_cast<ir::Int>(prod_core)});
          const auto prod_pos = static_cast<ir::Int>(static_cast<std::size_t>(prod) -
                                                     f[static_cast<std::size_t>(prod_core)]);
          deps.wait(e.j) = static_cast<std::int32_t>(trace.size());
          trace.push_back(arch::MakeSync(sync::SyncOp::kWait, paddr, prod_pos + 1));
          continue;
        }
        if (e.stmt >= nstmts) {
          // Post pseudo-statement: announce this iteration complete in this
          // core's post slot, after the iteration's last instruction.
          const ir::Array& sa = prog.array(nest.sync.sync_array);
          sim::Addr paddr = sa.AddrOf({static_cast<ir::Int>(core)});
          trace.push_back(arch::MakeSync(sync::SyncOp::kPost, paddr, 0, deps.last(e.j)));
          continue;
        }
        const ir::Stmt& st = nest.body[static_cast<std::size_t>(e.stmt)];
        const std::size_t size_before = trace.size();
        if (st.sync.kind == ir::SyncKind::kNdcAtomic || st.sync.kind == ir::SyncKind::kHostLock) {
          emit_sync_stmt(e, st, iter);
          if (postwait && trace.size() > size_before) {
            deps.last(e.j) = static_cast<std::int32_t>(trace.size()) - 1;
          }
          continue;
        }
        switch (e.phase) {
          case kIdx0:
          case kIdx1:
          case kIdxStore:
            break;  // folded into the load/store emission below
          case kLoad0:
            emit_operand_load(st, e.stmt, st.rhs0, e.j, 0);
            break;
          case kLoad1:
            emit_operand_load(st, e.stmt, st.rhs1, e.j, 1);
            break;
          case kComputeP: {
            std::int32_t l0 =
                st.rhs0.IsMemory() ? deps.at(e.stmt, e.j, DepTable::kOperand0) : -1;
            std::int32_t l1 =
                st.rhs1.IsMemory() ? deps.at(e.stmt, e.j, DepTable::kOperand1) : -1;
            arch::Instr ci;
            bool both_mem = l0 >= 0 && l1 >= 0;
            bool offload_here = st.ndc.offload && both_mem;
            if (offload_here && cme != nullptr) {
              offload_here =
                  cme->PredictMissL1(e.stmt, analysis::OperandSel::kRhs0, iter) &&
                  cme->PredictMissL1(e.stmt, analysis::OperandSel::kRhs1, iter);
            }
            if (offload_here) {
              ci = arch::MakePreCompute(st.op, l0, l1, st.ndc.planned, st.ndc.timeout,
                                        st.id * 16 + kComputeP, st.id);
              ++out.precomputes;
            } else {
              ci = arch::MakeCompute(st.op, l0, l1, both_mem, st.id * 16 + kComputeP, st.id);
            }
            deps.at(e.stmt, e.j, DepTable::kComputed) = static_cast<std::int32_t>(trace.size());
            trace.push_back(ci);
            break;
          }
          case kStoreP: {
            auto addr = prog.ResolveAddr(st.lhs, iter);
            if (!addr.has_value()) break;
            arch::Instr si = arch::MakeStore(*addr, deps.at(e.stmt, e.j, DepTable::kComputed));
            si.pc = st.id * 16 + kStoreP;
            trace.push_back(si);
            break;
          }
        }
        if (postwait && trace.size() > size_before) {
          deps.last(e.j) = static_cast<std::int32_t>(trace.size()) - 1;
        }
      }
      if (BarrierAfter(nest) && participants > 0) {
        // Join the nest: every active core arrives at the barrier cell (the
        // sync array's last element) after its final instruction.
        const ir::Array& sa = prog.array(nest.sync.sync_array);
        sim::Addr baddr = sa.AddrOf({sa.dims[0] - 1});
        std::int32_t dep = trace.size() > nest_base
                               ? static_cast<std::int32_t>(trace.size()) - 1
                               : -1;
        trace.push_back(arch::MakeSync(sync::SyncOp::kBarrierArrive, baddr, participants, dep));
      }
    }
    for (const ir::Stmt& st : nest.body) {
      for (const ir::Operand* o : {&st.rhs0, &st.rhs1, &st.lhs}) {
        if (!o->IsMemory()) continue;
        warm_arrays.insert(o->kind == ir::Operand::Kind::kIndirect ? o->target_array
                                                                   : o->access.array);
      }
    }
  }
  for (const arch::Trace& t : out.traces) out.total_instrs += t.size();
  return out;
}

}  // namespace ndc::compiler
