// src/fault tests: schedule parsing/canonicalization/determinism, injector
// window semantics, the timeout/retry/degrade state machine, the
// request-conservation invariant under randomized fault storms, and the
// faults-off golden-equivalence guarantee (an empty schedule must be
// bit-identical to no schedule at all).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "metrics/experiment.hpp"
#include "obs/decision_log.hpp"

namespace ndc::fault {
namespace {

FaultSchedule SampleSchedule() {
  FaultSchedule s;
  s.seed = 7;
  s.link_faults.push_back({3, 100, 900, 8, 0.25});
  s.link_faults.push_back({12, 0, 500, 0, 0.5});
  s.bank_faults.push_back({0, 2, 0, 5000, BankFaultKind::kStall});
  s.bank_faults.push_back({1, 7, 200, 800, BankFaultKind::kNack});
  s.mc_pressure.push_back({1, 200, 400, 16});
  s.resilience.max_retries = 2;
  s.resilience.backoff_mult = 1.5;
  s.resilience.retransmit_delay = 16;
  s.resilience.nack_backoff = 48;
  return s;
}

// ----------------------------------------------------------- schedule ---

TEST(Schedule, CanonicalStringRoundTripsThroughJson) {
  FaultSchedule s = SampleSchedule();
  FaultSchedule back;
  std::string err;
  ASSERT_TRUE(ParseSchedule(s.ToJson(), &back, &err)) << err;
  EXPECT_EQ(back.CanonicalString(), s.CanonicalString());
}

TEST(Schedule, EmptyIsInertAndNonEmptyIsNot) {
  FaultSchedule s;
  EXPECT_TRUE(s.Empty());
  s.resilience.max_retries = 1;  // retries alone change runtime behavior
  EXPECT_FALSE(s.Empty());
  s = FaultSchedule{};
  s.mc_pressure.push_back({0, 0, 10, 5});
  EXPECT_FALSE(s.Empty());
}

TEST(Schedule, ParseRejectsMalformedInput) {
  FaultSchedule out;
  std::string err;
  // A typo must not silently produce an un-faulted run.
  EXPECT_FALSE(ParseSchedule(R"({"seeed":1})", &out, &err));
  EXPECT_FALSE(ParseSchedule(R"({"link_faults":[{"link":1,"start":0,"end":9,"drop_prob":1.5}]})", &out, &err));
  EXPECT_FALSE(ParseSchedule(R"({"link_faults":[{"link":1,"start":10,"end":5}]})", &out, &err));
  EXPECT_FALSE(ParseSchedule(R"({"bank_faults":[{"mc":0,"bank":1,"start":0,"end":9,"kind":"melt"}]})", &out, &err));
  EXPECT_FALSE(ParseSchedule(R"({"resilience":{"max_retries":-1}})", &out, &err));
  EXPECT_FALSE(ParseSchedule(R"({"resilience":{"backoff_mult":0.5}})", &out, &err));
  // Zero would re-attempt in the same cycle forever.
  EXPECT_FALSE(ParseSchedule(R"({"resilience":{"retransmit_delay":0}})", &out, &err));
  EXPECT_FALSE(ParseSchedule(R"({"resilience":{"nack_backoff":0}})", &out, &err));
  EXPECT_FALSE(ParseSchedule(R"({"seed":1} trailing)", &out, &err));
  EXPECT_FALSE(ParseSchedule(R"({"seed":1,"seed":2})", &out, &err));
  // Number tokens must convert in full and fit their field.
  for (const char* bad : {R"({"seed":+})", R"({"seed":-})", R"({"seed":.})", R"({"seed":1-2})",
                          R"({"seed":7e})", R"({"seed":3.0.0})",
                          R"({"seed":99999999999999999999})",
                          R"({"link_faults":[{"link":2147483648,"start":0,"end":9}]})",
                          R"({"resilience":{"max_retries":4294967295}})",
                          R"({"resilience":{"max_retries":1e300}})"}) {
    EXPECT_FALSE(ParseSchedule(bad, &out, &err)) << bad;
  }
  EXPECT_FALSE(ParseSchedule(R"({"resilience":{"max_retries":1,"max_retries":2}})", &out, &err));
  // \u016e truncated to its low byte would read as "nack".
  EXPECT_FALSE(ParseSchedule(R"({"bank_faults":[{"kind":"\u016eack"}]})", &out, &err));
}

TEST(Schedule, LoadAcceptsInlineJsonAndFiles) {
  FaultSchedule inl;
  std::string err;
  ASSERT_TRUE(LoadSchedule(R"({"seed":9})", &inl, &err)) << err;
  EXPECT_EQ(inl.seed, 9u);

  std::string path = ::testing::TempDir() + "/fault_sched.json";
  {
    std::ofstream f(path);
    f << SampleSchedule().ToJson();
  }
  FaultSchedule from_file;
  ASSERT_TRUE(LoadSchedule(path, &from_file, &err)) << err;
  EXPECT_EQ(from_file.CanonicalString(), SampleSchedule().CanonicalString());
  std::remove(path.c_str());

  EXPECT_FALSE(LoadSchedule("/nonexistent/sched.json", &from_file, &err));
}

TEST(Schedule, ScaledScalesMagnitudesAndClampsProbabilities) {
  FaultSchedule s = SampleSchedule();
  FaultSchedule hard = s.Scaled(3.0);
  EXPECT_EQ(hard.link_faults[0].extra_latency, 24u);
  EXPECT_DOUBLE_EQ(hard.link_faults[0].drop_prob, 0.75);
  EXPECT_DOUBLE_EQ(hard.link_faults[1].drop_prob, 1.0);  // 1.5 clamps
  EXPECT_EQ(hard.mc_pressure[0].extra_delay, 48u);
  EXPECT_EQ(hard.bank_faults.size(), s.bank_faults.size());  // kinds unscaled

  FaultSchedule off = s.Scaled(0.0);
  EXPECT_TRUE(off.link_faults.empty());
  EXPECT_TRUE(off.bank_faults.empty());
  EXPECT_TRUE(off.mc_pressure.empty());
  EXPECT_EQ(off.resilience.max_retries, 2);  // resilience retained
  EXPECT_FALSE(off.Empty());
}

TEST(Schedule, StormIsDeterministicInItsSpec) {
  StormSpec spec;
  spec.num_links = 100;
  spec.num_mcs = 4;
  spec.banks_per_mc = 16;
  spec.horizon = 10000;
  spec.intensity = 0.8;
  spec.seed = 42;
  FaultSchedule a = MakeStorm(spec);
  FaultSchedule b = MakeStorm(spec);
  EXPECT_EQ(a.CanonicalString(), b.CanonicalString());
  EXPECT_FALSE(a.link_faults.empty());
  EXPECT_FALSE(a.bank_faults.empty());

  spec.seed = 43;
  EXPECT_NE(MakeStorm(spec).CanonicalString(), a.CanonicalString());

  spec.intensity = 0.0;
  FaultSchedule calm = MakeStorm(spec);
  EXPECT_TRUE(calm.link_faults.empty());
  EXPECT_TRUE(calm.bank_faults.empty());
  EXPECT_TRUE(calm.mc_pressure.empty());
}

// ----------------------------------------------------------- injector ---

TEST(Injector, SameSeedYieldsIdenticalDropDecisions) {
  FaultSchedule s;
  s.seed = 11;
  s.link_faults.push_back({5, 0, 1000, 0, 0.5});
  FaultInjector a(s), b(s);
  for (sim::Cycle t = 0; t < 200; ++t) {
    LinkEffect ea = a.OnLinkTraverse(5, t);
    LinkEffect eb = b.OnLinkTraverse(5, t);
    EXPECT_EQ(ea.drop, eb.drop) << "cycle " << t;
  }
  EXPECT_EQ(a.counts().link_drops, b.counts().link_drops);
  EXPECT_GT(a.counts().link_drops, 0u);   // p=0.5 over 200 draws
  EXPECT_LT(a.counts().link_drops, 200u);
}

TEST(Injector, WindowsMatchByIdAndCycleAndAccumulate) {
  FaultSchedule s;
  s.link_faults.push_back({5, 100, 200, 8, 0.0});
  s.link_faults.push_back({5, 150, 300, 4, 0.0});
  FaultInjector inj(s);
  EXPECT_EQ(inj.OnLinkTraverse(5, 99).extra_latency, 0u);   // before window
  EXPECT_EQ(inj.OnLinkTraverse(5, 100).extra_latency, 8u);
  EXPECT_EQ(inj.OnLinkTraverse(5, 150).extra_latency, 12u);  // overlap sums
  EXPECT_EQ(inj.OnLinkTraverse(5, 200).extra_latency, 4u);   // end exclusive
  EXPECT_EQ(inj.OnLinkTraverse(6, 150).extra_latency, 0u);   // other link
}

TEST(Injector, StallDominatesNackAndStallEndCoversLatestWindow) {
  FaultSchedule s;
  s.bank_faults.push_back({0, 3, 100, 500, BankFaultKind::kNack});
  s.bank_faults.push_back({0, 3, 200, 900, BankFaultKind::kStall});
  FaultInjector inj(s);
  EXPECT_EQ(inj.OnBankSchedule(0, 3, 150), BankEffect::kNack);
  EXPECT_EQ(inj.OnBankSchedule(0, 3, 250), BankEffect::kStall);
  EXPECT_EQ(inj.StallEnd(0, 3, 250), 900u);
  EXPECT_EQ(inj.OnBankSchedule(0, 3, 950), BankEffect::kHealthy);
  EXPECT_EQ(inj.OnBankSchedule(1, 3, 250), BankEffect::kHealthy);
}

TEST(Injector, McPressureSumsMatchingWindows) {
  FaultSchedule s;
  s.mc_pressure.push_back({2, 0, 100, 16});
  s.mc_pressure.push_back({2, 50, 100, 4});
  FaultInjector inj(s);
  EXPECT_EQ(inj.OnMcEnqueue(2, 10), 16u);
  EXPECT_EQ(inj.OnMcEnqueue(2, 60), 20u);
  EXPECT_EQ(inj.OnMcEnqueue(2, 100), 0u);
  EXPECT_EQ(inj.OnMcEnqueue(0, 10), 0u);
  EXPECT_EQ(inj.counts().mc_pressure_hits, 2u);
}

// ------------------------------------------------------- conservation ---

TEST(Conservation, HealthyCountersPass) {
  ConservationInputs in;
  in.offloads = 10;
  in.ndc_success = 4;
  in.fallbacks = 6;
  in.packets_sent = 100;
  in.packets_delivered = 95;
  in.packets_squashed = 5;
  in.packets_dropped = 7;
  in.packets_retransmitted = 7;
  in.mc_reads = 50;
  in.mc_reads_done = 50;
  in.mc_nacks = 3;
  in.mc_nack_retries = 3;
  EXPECT_TRUE(CheckConservation(in).ok);
}

TEST(Conservation, EachLostRequestIsNamed) {
  ConservationInputs in;
  in.offloads = 10;
  in.ndc_success = 4;
  in.fallbacks = 5;        // one offload vanished
  in.cores_incomplete = 2; // two cores never finished
  in.mc_reads = 50;
  in.mc_reads_done = 49;   // one read lost
  ConservationReport rep = CheckConservation(in);
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.violations.size(), 3u);
  EXPECT_NE(rep.ToString().find("offloads"), std::string::npos);
}

// ------------------------------------------------- decision-log audit ---

TEST(DecisionLog, RetriesAreCountedAndEmittedOnlyWhenNonZero) {
  obs::DecisionLog log;
  log.Record(1, 0, 0, obs::DecisionKind::kOffload, 0, 10);
  log.Record(2, 0, 1, obs::DecisionKind::kOffload, 0, 11);
  log.NoteRetry(1);
  log.NoteRetry(1);
  log.NoteRetry(99);  // unknown uid: ignored
  log.Resolve(1, obs::Outcome::kDegradedToHost, -1, 500);
  log.NoteRetry(1);   // resolved: ignored
  log.Resolve(2, obs::Outcome::kNdcSuccess, 2, 40);

  EXPECT_EQ(log.total_retries(), 2u);
  EXPECT_EQ(log.outcome_count(obs::Outcome::kDegradedToHost), 1u);
  std::string jsonl = log.ToJsonl();
  EXPECT_NE(jsonl.find("\"retries\":2"), std::string::npos);
  EXPECT_NE(jsonl.find("degraded_to_host"), std::string::npos);
  // Fault-free entries stay byte-identical: no retries key at zero.
  std::size_t second = jsonl.find('\n') + 1;
  EXPECT_EQ(jsonl.find("\"retries\"", second), std::string::npos);
}

// --------------------------------------------------- machine behavior ---

ConservationInputs RunFaulted(metrics::Experiment& exp, const FaultSchedule& sched,
                              metrics::SchemeResult* out,
                              metrics::Scheme scheme = metrics::Scheme::kAlgorithm1) {
  *out = exp.Run(scheme, {nullptr, &sched});
  EXPECT_TRUE(out->fault_report.has_value());
  return out->fault_report ? out->fault_report->conservation : ConservationInputs{};
}

TEST(Machine, TotalBankOutageForcesRetriesThenDegradesGracefully) {
  arch::ArchConfig cfg;
  metrics::Experiment exp("fft", workloads::Scale::kTest, cfg);

  // Stall every bank of every controller far beyond the wait timeout: any
  // offload waiting on a DRAM-sourced operand must exhaust its retry budget
  // and degrade to the host core — but the run still completes and no
  // request is lost.
  FaultSchedule sched;
  sched.resilience.max_retries = 1;
  for (int mc = 0; mc < cfg.num_mcs; ++mc) {
    for (int b = 0; b < cfg.MakeAddressMap().banks_per_mc; ++b) {
      sched.bank_faults.push_back(
          {static_cast<sim::McId>(mc), b, 0, 2'000'000, BankFaultKind::kStall});
    }
  }

  metrics::SchemeResult r;
  ConservationInputs cons = RunFaulted(exp, sched, &r);
  EXPECT_GT(r.run.stats.Get("ndc.retries"), 0u);
  EXPECT_GT(r.run.stats.Get("ndc.degraded_to_host"), 0u);
  EXPECT_GE(r.run.makespan, 2'000'000u);  // the outage gates completion
  EXPECT_TRUE(CheckConservation(cons).ok) << CheckConservation(cons).ToString();
}

TEST(Machine, FaultedRunsAreSeedReproducible) {
  StormSpec spec;
  arch::ArchConfig cfg;
  spec.num_links = cfg.num_nodes() * 4;
  spec.num_mcs = cfg.num_mcs;
  spec.banks_per_mc = cfg.MakeAddressMap().banks_per_mc;
  spec.horizon = 6000;
  spec.intensity = 0.75;
  spec.seed = 5;
  FaultSchedule sched = MakeStorm(spec);

  metrics::SchemeResult a, b;
  {
    metrics::Experiment exp("fft", workloads::Scale::kTest, cfg);
    RunFaulted(exp, sched, &a);
    RunFaulted(exp, sched, &b);  // same Experiment: fresh injector per run
  }
  EXPECT_EQ(a.run.makespan, b.run.makespan);
  EXPECT_EQ(a.run.stats.all(), b.run.stats.all());

  metrics::Experiment exp2("fft", workloads::Scale::kTest, cfg);
  metrics::SchemeResult c;
  RunFaulted(exp2, sched, &c);
  EXPECT_EQ(a.run.makespan, c.run.makespan);
  EXPECT_EQ(a.run.stats.all(), c.run.stats.all());
}

TEST(Machine, ConservationHoldsUnderRandomizedFaultStorms) {
  arch::ArchConfig cfg;
  StormSpec spec;
  spec.num_links = cfg.num_nodes() * 4;
  spec.num_mcs = cfg.num_mcs;
  spec.banks_per_mc = cfg.MakeAddressMap().banks_per_mc;
  spec.horizon = 6000;

  for (std::uint64_t seed : {1u, 2u, 3u}) {
    for (double intensity : {0.3, 0.7, 1.0}) {
      spec.seed = seed;
      spec.intensity = intensity;
      FaultSchedule sched = MakeStorm(spec);
      metrics::Experiment exp("fft", workloads::Scale::kTest, cfg);
      metrics::SchemeResult r;
      ConservationInputs cons = RunFaulted(exp, sched, &r);
      ConservationReport rep = CheckConservation(cons);
      EXPECT_TRUE(rep.ok) << "seed=" << seed << " intensity=" << intensity << "\n"
                          << rep.ToString();
      EXPECT_GT(r.run.makespan, 0u);
    }
  }
}

TEST(Machine, EmptyScheduleIsBitIdenticalToNoSchedule) {
  arch::ArchConfig cfg;
  metrics::Experiment plain("fft", workloads::Scale::kTest, cfg);
  metrics::SchemeResult a = plain.Run(metrics::Scheme::kAlgorithm1);

  FaultSchedule empty;
  ASSERT_TRUE(empty.Empty());
  metrics::Experiment faulted("fft", workloads::Scale::kTest, cfg);
  metrics::SchemeResult b = faulted.Run(metrics::Scheme::kAlgorithm1, {nullptr, &empty});

  EXPECT_EQ(a.run.makespan, b.run.makespan);
  EXPECT_EQ(a.run.stats.all(), b.run.stats.all());
  EXPECT_FALSE(b.fault_report.has_value());
  // No fault counter may leak into the fault-free stat set (golden freeze).
  for (const auto& [name, value] : a.run.stats.all()) {
    EXPECT_EQ(name.find("ndc.retries"), std::string::npos) << name;
    EXPECT_EQ(name.find("ndc.degraded_to_host"), std::string::npos) << name;
    EXPECT_EQ(name.find("noc.drops"), std::string::npos) << name;
    EXPECT_EQ(name.find("mc.nacks"), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace ndc::fault
