// Tool: export the Section-4 observation records of one benchmark as CSV —
// one row per dynamic NDC candidate with its per-location arrival windows,
// breakeven points, conventional completion, and reuse flags. Feed it to
// your plotting tool of choice to regenerate Figures 2/3/5 offline.
//
// Usage: export_records [NAME] [--scale=test|small|full] --all > records.csv
// Without --all only the first 20 rows are printed (keeps batch logs small).

#include <cstdio>
#include <cstring>
#include <string>

#include "bench_common.hpp"
#include "ndc/record.hpp"

using namespace ndc;

int main(int argc, char** argv) {
  benchutil::ParseSpec pspec;
  pspec.positional_name = true;
  pspec.allow_all = true;
  benchutil::Args args = benchutil::Parse(argc, argv, workloads::Scale::kTest, pspec);
  std::string name = args.positional.empty() ? "md" : args.positional;
  bool all = args.all;

  arch::ArchConfig cfg;
  noc::Mesh mesh(cfg.mesh_width, cfg.mesh_height);
  metrics::Experiment exp(name, args.scale, cfg);
  const auto& obs = exp.Observe();

  std::printf("core,pc,site,local_l1,reused_l1,reused_l2,conv_done,"
              "net_feasible,net_window,net_breakeven,"
              "cache_feasible,cache_window,cache_breakeven,"
              "mc_feasible,mc_window,mc_breakeven,"
              "mem_feasible,mem_window,mem_breakeven\n");
  std::size_t printed = 0;
  obs.records->ForEach([&](const runtime::InstanceRecord& rec) {
    if (!all && printed >= 20) return;
    ++printed;
    std::printf("%d,%u,%u,%d,%d,%d,%llu", rec.core, rec.pc, rec.site, rec.local_l1 ? 1 : 0,
                rec.operand_reused_later ? 1 : 0, rec.operand_reused_later_l2 ? 1 : 0,
                static_cast<unsigned long long>(rec.conv_done));
    for (arch::Loc loc : runtime::kTrialOrder) {
      const runtime::LocObs& o = rec.at(loc);
      sim::Cycle w = o.Window();
      sim::Cycle ret = runtime::ResultReturnLatency(mesh, cfg.noc, o.node, rec.core);
      sim::Cycle brk = runtime::BreakevenPoint(rec, loc, 1, ret);
      if (w == sim::kNeverCycle) {
        std::printf(",%d,,%llu", o.feasible ? 1 : 0, static_cast<unsigned long long>(brk));
      } else {
        std::printf(",%d,%llu,%llu", o.feasible ? 1 : 0, static_cast<unsigned long long>(w),
                    static_cast<unsigned long long>(brk));
      }
    }
    std::printf("\n");
  });
  std::fflush(stdout);
  std::fprintf(stderr, "exported %zu of %zu records for %s (scale=%s)%s\n", printed,
               obs.records->TotalInstances(), name.c_str(), harness::ScaleName(args.scale),
               all ? "" : " — pass --all for the full dump");
  return 0;
}
