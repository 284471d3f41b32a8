// Scenario format and SLO determinism locks:
//   * .scn parse/to_string exact round-trip, and rejection of malformed
//     input with the offending line in the message;
//   * the fault script compiles to EXACTLY the existing net::FaultPlan
//     vocabulary — differential test against a hand-built plan (no second
//     fault language, docs/VERIFICATION.md);
//   * churn is a deterministic per-seed kCrash/kRecover stream under
//     the chaos harness's pause-vs-restart semantics knob;
//   * golden SLO reports: fixed scenario × seed range → byte-identical
//     JSON across repeated runs and across --jobs 1 vs --jobs 4.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/fault_plan.h"
#include "workload/runner.h"
#include "workload/scenario.h"
#include "workload/slo.h"

namespace dvs::workload {
namespace {

// ----- parse / to_string -----------------------------------------------------

Scenario full_scenario() {
  Scenario s;
  s.name = "kitchen-sink";
  s.n = 4;
  s.initial = 3;
  s.seeds = 2;
  s.seed = 7;
  s.warmup = 300 * sim::kMillisecond;
  s.horizon = 12 * sim::kSecond;
  s.settle = 2 * sim::kSecond;
  s.heartbeat_ms = 40;
  s.suspect_ms = 200;
  s.propose_ms = 500;
  s.net.batching = true;
  s.persistence = true;
  s.clients = 6;
  s.closed_loop = false;
  s.rate = 123.5;
  s.think = 7 * sim::kMillisecond;
  s.mix.keys = 500;
  s.mix.dist = KeyDist::kLatest;
  s.mix.theta = 0.9;
  s.mix.reads = 30;
  s.mix.writes = 65;
  s.mix.scans = 5;
  s.mix.scan_len = 5;
  s.mix.value_len = 16;
  s.sample_period = 40 * sim::kMillisecond;
  s.phases = {Phase{"quiet", 4 * sim::kSecond, 1.0},
              Phase{"peak", 4 * sim::kSecond, 3.0},
              Phase{"trough", 4 * sim::kSecond, 0.5}};
  s.burst_period = 1 * sim::kSecond;
  s.burst_len = 200 * sim::kMillisecond;
  s.burst_mult = 2.5;
  s.net.process_region = {0, 0, 1, 1};
  s.net.region_delay = {{1 * sim::kMillisecond, 25 * sim::kMillisecond},
                        {25 * sim::kMillisecond, 1 * sim::kMillisecond}};
  s.net.drop_probability = 0.01;
  s.net.duplicate_probability = 0.005;
  s.flaps = {FlapSpec{ProcessId{2}, 1 * sim::kSecond, 2 * sim::kSecond,
                      300 * sim::kMillisecond, 2}};
  s.crash_groups = {CrashGroupSpec{
      5 * sim::kSecond, 500 * sim::kMillisecond, {ProcessId{0}, ProcessId{3}}}};
  s.rolling_restart = RollingRestartSpec{8 * sim::kSecond,
                                         200 * sim::kMillisecond};
  s.drop_windows = {WindowSpec{6 * sim::kSecond, 400 * sim::kMillisecond, 0.3}};
  s.dup_bursts = {WindowSpec{7 * sim::kSecond, 200 * sim::kMillisecond, 0.5}};
  s.churn = ChurnSpec{0.75, true, 400 * sim::kMillisecond,
                      1200 * sim::kMillisecond};
  s.slo_availability_ppm = 700000;
  s.slo_p99_commit_ms = 4000;
  return s;
}

TEST(ScenarioFormat, ToStringParseRoundTripsExactly) {
  const Scenario s = full_scenario();
  s.validate();
  const std::string text = s.to_string();
  const Scenario reparsed = Scenario::parse(text);
  EXPECT_EQ(reparsed, s);
  EXPECT_EQ(reparsed.to_string(), text);
}

TEST(ScenarioFormat, ParsesCommentsBlanksAndDefaults) {
  const Scenario s = Scenario::parse(
      "# a comment line\n"
      "name demo   # trailing comment\n"
      "\n"
      "n 3\n"
      "horizon_ms 2000\n");
  EXPECT_EQ(s.name, "demo");
  EXPECT_EQ(s.n, 3u);
  EXPECT_EQ(s.horizon, 2 * sim::kSecond);
  // Everything else keeps its default.
  EXPECT_EQ(s.clients, 4u);
  EXPECT_TRUE(s.closed_loop);
  EXPECT_TRUE(s.phases.empty());
  EXPECT_EQ(s.effective_phases().size(), 1u);
  EXPECT_EQ(s.effective_phases()[0].duration, s.horizon);
}

TEST(ScenarioFormat, RejectsMalformedInputWithTheOffendingLine) {
  const auto reject = [](const std::string& text, const char* needle) {
    try {
      (void)Scenario::parse(text);
      FAIL() << "accepted: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "message '" << e.what() << "' lacks '" << needle << "'";
    }
  };
  reject("bogus 1\n", "unknown key");
  reject("n 3 extra\n", "trailing token");
  reject("n abc\n", "malformed number");
  // The retired stability knob fails loudly instead of being ignored.
  reject("watermarks on\n", "unknown key 'watermarks'");
  reject("batching maybe\n", "on|off");
  reject("loop sideways\n", "closed|open");
  reject("dist pareto\n", "unknown key distribution");
  reject("horizon_ms 2000\nwarmup_ms 2000\n", "warmup");
  reject("horizon_ms 2000\nphase a 1000 1\n", "phase durations");
  reject("horizon_ms 2000\nreads 60\n", "must be 100");
  reject("region 0 0\nregion 1 0\nregion 2 0\n", "latency");
  reject("crash_group 1000 500 0,1,2\n", "at least one process alive");
  reject("flap 9 1000 2000 300 1\n", "outside universe");
  // Ids past the universe are refused where they are read: no wrap to an
  // in-range id, no truncation to ProcessId's 32 bits, no allocation sized
  // by the id.
  reject("region 18446744073709551615 0\n",
         "(region 18446744073709551615 0): process outside 0..n-1");
  reject("region 3 0\n", "(region 3 0): process outside 0..n-1");
  reject("region 1000000000 0\n", "(region 1000000000 0)");
  reject("latency 0 18446744073709551615 5\n",
         "(latency 0 18446744073709551615 5): region outside 0..n-1");
  reject("latency 1000000 0 5\n", "(latency 1000000 0 5)");
  reject("flap 4294967296 1000 2000 100 1\n",
         "(flap 4294967296 1000 2000 100 1): process id 4294967296 out of "
         "range");
  reject("crash_group 1000 500 0,4294967297\n",
         "(crash_group 1000 500 0,4294967297): process id 4294967297 out of "
         "range");
  reject("churn 0.5 restart 800 400\n", "down_min > down_max");
  reject("churn 0.5 sometimes 400 800\n", "pause|restart");
  reject("slo_availability_ppm 2000000\n", "<= 1000000");
  reject("horizon_ms 2000\nburst 500 600 2\n", "burst length");
  // Overlapping flap windows drive one global partition state.
  reject(
      "n 3\nhorizon_ms 4000\n"
      "flap 0 1000 2000 300 2\n"
      "flap 1 1100 2000 300 1\n",
      "overlap");
}

// ----- fault compilation: differential against a hand-built FaultPlan -------

TEST(ScenarioFaults, CompilesToExactlyTheHandBuiltFaultPlan) {
  Scenario s;
  s.name = "differential";
  s.n = 4;
  s.horizon = 12 * sim::kSecond;
  s.flaps = {FlapSpec{ProcessId{1}, 1 * sim::kSecond, 2 * sim::kSecond,
                      300 * sim::kMillisecond, 2}};
  s.crash_groups = {CrashGroupSpec{
      4 * sim::kSecond, 500 * sim::kMillisecond, {ProcessId{0}, ProcessId{2}}}};
  s.rolling_restart = RollingRestartSpec{6 * sim::kSecond,
                                         200 * sim::kMillisecond};
  s.drop_windows = {
      WindowSpec{2500 * sim::kMillisecond, 400 * sim::kMillisecond, 0.25}};
  s.dup_bursts = {
      WindowSpec{3 * sim::kSecond, 200 * sim::kMillisecond, 0.5}};
  s.validate();

  // The scripted parts are seed-independent.
  EXPECT_EQ(s.compile_faults(1), s.compile_faults(99));

  // Hand-built expectation in the FaultPlan's own vocabulary, sorted by
  // time exactly as FaultPlan::schedule consumes it.
  using net::FaultEvent;
  const ProcessSet rest{ProcessId{0}, ProcessId{2}, ProcessId{3}};
  net::FaultPlan expected;
  auto add = [&expected](FaultEvent::Kind kind, sim::Time at, ProcessId target,
                         std::vector<ProcessSet> groups, sim::Time duration,
                         double probability) {
    FaultEvent e;
    e.kind = kind;
    e.at = at;
    e.target = target;
    e.groups = std::move(groups);
    e.duration = duration;
    e.probability = probability;
    expected.events.push_back(std::move(e));
  };
  add(FaultEvent::Kind::kPartition, 1 * sim::kSecond, ProcessId{},
      {ProcessSet{ProcessId{1}}, rest}, 0, 0.0);
  add(FaultEvent::Kind::kHeal, 1300 * sim::kMillisecond, ProcessId{}, {}, 0,
      0.0);
  add(FaultEvent::Kind::kDropWindow, 2500 * sim::kMillisecond, ProcessId{}, {},
      400 * sim::kMillisecond, 0.25);
  add(FaultEvent::Kind::kPartition, 3 * sim::kSecond, ProcessId{},
      {ProcessSet{ProcessId{1}}, rest}, 0, 0.0);
  add(FaultEvent::Kind::kDupBurst, 3 * sim::kSecond, ProcessId{}, {},
      200 * sim::kMillisecond, 0.5);
  add(FaultEvent::Kind::kHeal, 3300 * sim::kMillisecond, ProcessId{}, {}, 0,
      0.0);
  add(FaultEvent::Kind::kCrash, 4 * sim::kSecond, ProcessId{0}, {}, 0, 0.0);
  add(FaultEvent::Kind::kCrash, 4 * sim::kSecond, ProcessId{2}, {}, 0, 0.0);
  add(FaultEvent::Kind::kRecover, 4500 * sim::kMillisecond, ProcessId{0}, {},
      0, 0.0);
  add(FaultEvent::Kind::kRecover, 4500 * sim::kMillisecond, ProcessId{2}, {},
      0, 0.0);
  for (std::uint32_t i = 0; i < 4; ++i) {
    add(FaultEvent::Kind::kRestart,
        6 * sim::kSecond + i * 200 * sim::kMillisecond, ProcessId{i}, {}, 0,
        0.0);
  }

  EXPECT_EQ(s.compile_faults(1), expected);
  // The plan round-trips through FaultPlan's own serializer — proof the
  // compilation lives entirely inside the existing vocabulary.
  EXPECT_EQ(net::FaultPlan::parse(s.compile_faults(1).to_string()), expected);
  // Rolling restarts need stable storage; nothing here upgrades kCrash.
  EXPECT_TRUE(s.needs_persistence());
  EXPECT_FALSE(s.crashes_restart());
}

TEST(ScenarioFaults, ChurnIsASeededCrashRecoverStream) {
  Scenario s;
  s.name = "churny";
  s.n = 4;
  s.warmup = 500 * sim::kMillisecond;
  s.horizon = 30 * sim::kSecond;
  s.churn = ChurnSpec{2.0, true, 200 * sim::kMillisecond,
                      900 * sim::kMillisecond};
  s.validate();

  const net::FaultPlan plan = s.compile_faults(42);
  EXPECT_EQ(plan, s.compile_faults(42));      // deterministic per seed
  EXPECT_NE(plan, s.compile_faults(43));      // and seed-sensitive
  ASSERT_FALSE(plan.events.empty());
  EXPECT_GT(plan.events.size(), 40u);  // ~2 events/s over ~30s, paired

  // Only the existing kCrash/kRecover vocabulary, properly paired per
  // target, inside the horizon, with outages in [down_min, down_max] and
  // never more than n-1 processes down at once. The plan is sorted by time,
  // so per-target event lists come out in time order.
  std::map<std::uint32_t, std::vector<net::FaultEvent>> per_target;
  for (const net::FaultEvent& e : plan.events) {
    ASSERT_TRUE(e.kind == net::FaultEvent::Kind::kCrash ||
                e.kind == net::FaultEvent::Kind::kRecover)
        << "churn leaked a non-crash fault kind";
    per_target[e.target.value()].push_back(e);
  }
  std::size_t crashes = 0;
  std::vector<std::pair<sim::Time, int>> sweep;  // (time, +1 crash / -1 up)
  for (const auto& [target, evs] : per_target) {
    EXPECT_LT(target, s.n);
    ASSERT_EQ(evs.size() % 2, 0u) << "unpaired events for " << target;
    for (std::size_t i = 0; i + 1 < evs.size(); i += 2) {
      ASSERT_EQ(evs[i].kind, net::FaultEvent::Kind::kCrash);
      ASSERT_EQ(evs[i + 1].kind, net::FaultEvent::Kind::kRecover);
      ++crashes;
      EXPECT_GE(evs[i].at, s.warmup);
      EXPECT_LT(evs[i].at, s.horizon);
      const sim::Time len = evs[i + 1].at - evs[i].at;
      EXPECT_GE(len, s.churn->down_min);
      EXPECT_LE(len, s.churn->down_max);
      if (i >= 2) {
        EXPECT_GE(evs[i].at, evs[i - 1].at)
            << "re-crashed " << target << " while still down";
      }
      sweep.emplace_back(evs[i].at, +1);
      sweep.emplace_back(evs[i + 1].at, -1);
    }
  }
  EXPECT_EQ(crashes * 2, plan.events.size());
  // Concurrency: sort recoveries before crashes at equal instants (the
  // compiler treats a recovery at t as up again for a crash drawn at t).
  std::sort(sweep.begin(), sweep.end());
  int down_now = 0;
  for (const auto& [at, delta] : sweep) {
    down_now += delta;
    EXPECT_LE(down_now, static_cast<int>(s.n) - 1) << "everyone dark at " << at;
  }

  // `churn ... restart` is the chaos harness's single semantics knob.
  EXPECT_TRUE(s.crashes_restart());
  EXPECT_TRUE(s.needs_persistence());
  Scenario pausey = s;
  pausey.churn->restart_semantics = false;
  EXPECT_FALSE(pausey.crashes_restart());
  EXPECT_FALSE(pausey.needs_persistence());
}

// ----- rate curve ------------------------------------------------------------

TEST(ScenarioRate, PhaseAndBurstMultipliersCompose) {
  Scenario s;
  s.horizon = 6 * sim::kSecond;
  s.phases = {Phase{"a", 2 * sim::kSecond, 1.0},
              Phase{"b", 2 * sim::kSecond, 3.0},
              Phase{"c", 2 * sim::kSecond, 0.5}};
  s.burst_period = 1 * sim::kSecond;
  s.burst_len = 100 * sim::kMillisecond;
  s.burst_mult = 2.0;
  s.validate();
  EXPECT_DOUBLE_EQ(s.rate_mult_at(500 * sim::kMillisecond), 1.0);
  EXPECT_DOUBLE_EQ(s.rate_mult_at(2500 * sim::kMillisecond), 3.0);
  EXPECT_DOUBLE_EQ(s.rate_mult_at(5 * sim::kSecond + 500 * sim::kMillisecond),
                   0.5);
  // Inside a burst window the train multiplies the phase.
  EXPECT_DOUBLE_EQ(s.rate_mult_at(3 * sim::kSecond + 50 * sim::kMillisecond),
                   6.0);
  EXPECT_DOUBLE_EQ(s.rate_mult_at(50 * sim::kMillisecond), 2.0);
}

// ----- SLO report algebra ----------------------------------------------------

TEST(SloReport, MergeAddsAndJsonIsStable) {
  SloReport a;
  a.scenario = "m";
  a.n = 3;
  a.seeds = 1;
  a.first_seed = 1;
  a.measured_us = 1000;
  a.issued = 10;
  a.completed = 9;
  a.commits = 4;
  a.samples = 100;
  a.available_samples = 90;
  SloReport b = a;
  b.available_samples = 100;
  a += b;
  EXPECT_EQ(a.seeds, 2u);
  EXPECT_EQ(a.issued, 20u);
  EXPECT_EQ(a.samples, 200u);
  EXPECT_EQ(a.availability_ppm(), 950000u);
  EXPECT_EQ(a.throughput_ops_per_sec(), 18u * 1'000'000 / 2000);
  EXPECT_EQ(a.to_json(), a.to_json());

  SloReport other;
  other.scenario = "different";
  EXPECT_THROW(a += other, std::logic_error);

  PhaseSlo p1, p2;
  p1.name = "x";
  p2.name = "y";
  EXPECT_THROW(p1 += p2, std::logic_error);
}

TEST(SloReport, DeclaredSlosGateThePassBit) {
  SloReport r;
  r.scenario = "slo";
  r.samples = 100;
  r.available_samples = 80;  // 800000 ppm
  EXPECT_TRUE(r.slo_pass());  // nothing declared
  r.slo_availability_ppm = 900000;
  EXPECT_FALSE(r.slo_pass());
  r.slo_availability_ppm = 750000;
  EXPECT_TRUE(r.slo_pass());
  r.span_violations = 1;
  EXPECT_FALSE(r.slo_pass());
  r.span_violations = 0;
  EXPECT_NE(r.to_json().find("\"pass\":1"), std::string::npos);
}

// ----- golden determinism: jobs 1 vs jobs 4, run vs rerun -------------------

Scenario golden_scenario() {
  Scenario s;
  s.name = "golden";
  s.n = 3;
  s.seeds = 3;
  s.seed = 1;
  s.warmup = 300 * sim::kMillisecond;
  s.horizon = 2 * sim::kSecond;
  s.settle = 1 * sim::kSecond;
  s.clients = 2;
  s.think = 5 * sim::kMillisecond;
  s.mix.keys = 100;
  s.flaps = {FlapSpec{ProcessId{2}, 800 * sim::kMillisecond,
                      600 * sim::kMillisecond, 200 * sim::kMillisecond, 2}};
  s.validate();
  return s;
}

TEST(ScenarioGolden, SloJsonIsByteIdenticalAcrossJobsAndReruns) {
  const Scenario s = golden_scenario();
  const ScenarioSweepResult jobs1 = run_scenario(s, 1);
  const ScenarioSweepResult jobs4 = run_scenario(s, 4);
  const ScenarioSweepResult again = run_scenario(s, 4);
  ASSERT_TRUE(jobs1.ok()) << jobs1.first_failure;
  ASSERT_TRUE(jobs4.ok());
  EXPECT_EQ(jobs1.slo.to_json(), jobs4.slo.to_json());
  EXPECT_EQ(jobs4.slo.to_json(), again.slo.to_json());
  // The merged metric snapshots carry every layer's counters and the span
  // invariants; they obey the same contract.
  EXPECT_EQ(jobs1.metrics.to_json(), jobs4.metrics.to_json());
  EXPECT_EQ(jobs1.metrics, jobs4.metrics);

  // The report actually measured something.
  EXPECT_GT(jobs1.slo.issued, 0u);
  EXPECT_GT(jobs1.slo.commits, 0u);
  EXPECT_GT(jobs1.slo.samples, 0u);
  EXPECT_EQ(jobs1.slo.seeds, 3u);
  EXPECT_EQ(jobs1.slo.converged_seeds, 3u);
  EXPECT_EQ(jobs1.slo.span_violations, 0u);
  EXPECT_EQ(jobs1.slo.fault_events, 3u * 4);  // 2 cut/heal pairs per seed
}

TEST(ScenarioGolden, SingleSeedRunIsSelfConsistent) {
  Scenario s = golden_scenario();
  s.seeds = 1;
  const SeedOutcome out = run_scenario_seed(s, 5);
  const SeedOutcome replay = run_scenario_seed(s, 5);
  EXPECT_EQ(out.slo.to_json(), replay.slo.to_json());
  EXPECT_EQ(out.metrics, replay.metrics);
  EXPECT_EQ(out.slo.first_seed, 5u);
  // Sampling covers the measured window at the configured period.
  EXPECT_EQ(out.slo.samples, (s.horizon - s.warmup) / s.sample_period);
  // Issued = per-kind sum; completed never exceeds issued.
  EXPECT_EQ(out.slo.issued, out.slo.reads + out.slo.writes + out.slo.scans);
  EXPECT_LE(out.slo.completed, out.slo.issued);
  EXPECT_EQ(out.slo.commits, out.slo.commit_latency.count);
}

TEST(ScenarioGolden, OpenLoopRunIsDeterministicToo) {
  Scenario s = golden_scenario();
  s.closed_loop = false;
  s.rate = 200.0;
  s.seeds = 2;
  const ScenarioSweepResult jobs1 = run_scenario(s, 1);
  const ScenarioSweepResult jobs4 = run_scenario(s, 4);
  ASSERT_TRUE(jobs1.ok()) << jobs1.first_failure;
  EXPECT_EQ(jobs1.slo.to_json(), jobs4.slo.to_json());
  EXPECT_GT(jobs1.slo.issued, 0u);
}

}  // namespace
}  // namespace dvs::workload
