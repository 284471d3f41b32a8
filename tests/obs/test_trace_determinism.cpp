// Span semantics of the StackTracer, and the determinism contract of the
// whole observability layer: for a fixed seed the metric snapshot and the
// span tree — including their serialized JSON — are bit-identical across
// repeated runs and across sweep thread counts, and the span invariants
// (no view_change left open at quiescence, every delivery nested in a
// view_active tenure, registrations never overlapping per process) hold on
// every conforming run.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "net/fault_plan.h"
#include "obs/stack_tracer.h"
#include "obs/trace.h"
#include "parallel/seed_sweep.h"
#include "shard/shard_chaos.h"
#include "tosys/cluster.h"

namespace dvs::obs {
namespace {

TEST(TraceLogTest, IdsAreConsecutiveAndCloseIsIdempotent) {
  TraceLog log;
  const SpanId a = log.open("k", ProcessId{0}, 10);
  const SpanId b = log.open("k", ProcessId{1}, 20, a);
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(log.span(b).parent, a);
  EXPECT_TRUE(log.span(a).open());
  EXPECT_EQ(log.open_count("k"), 2u);

  log.close(a, 30);
  EXPECT_EQ(log.span(a).outcome, SpanOutcome::kCompleted);
  EXPECT_EQ(log.span(a).duration(), 20u);
  log.abandon(a, 99);  // already closed: no-op
  EXPECT_EQ(log.span(a).outcome, SpanOutcome::kCompleted);
  EXPECT_EQ(*log.span(a).end, 30u);

  log.abandon(b, 25);
  EXPECT_EQ(log.span(b).outcome, SpanOutcome::kAbandoned);
  EXPECT_EQ(log.open_count("k"), 0u);

  log.close(kNoSpan, 1);  // null id: no-op
}

TEST(TraceLogTest, CoversIsInclusiveAndOpenExtendsForever) {
  TraceLog log;
  const SpanId a = log.open("k", ProcessId{0}, 10);
  EXPECT_TRUE(log.span(a).covers(10));
  EXPECT_TRUE(log.span(a).covers(1'000'000));
  EXPECT_FALSE(log.span(a).covers(9));
  log.close(a, 20);
  EXPECT_TRUE(log.span(a).covers(20));
  EXPECT_FALSE(log.span(a).covers(21));
}

TEST(StackTracerTest, ViewChangeLifecycle) {
  const ProcessId p0{0};
  const ProcessId p1{1};
  const View v0{ViewId::initial(), {p0, p1}};
  const View v1{ViewId{2, p0}, {p0, p1}};
  MetricsRegistry metrics;
  TraceLog trace;
  StackTracer tracer(metrics, trace);

  tracer.on_start(v0, 0);
  EXPECT_EQ(trace.open_count("view_active"), 2u);

  tracer.on_vs_newview(p0, v1, 100);
  tracer.on_vs_newview(p1, v1, 120);
  EXPECT_EQ(trace.open_count("view_change"), 2u);
  // Both transitions for v1 hang off one episode root (the first opened).
  // Copies, not references: later tracer calls append to the log and may
  // reallocate its span storage.
  {
    const Span first = trace.span(3);
    const Span second = trace.span(4);
    EXPECT_EQ(first.kind, "view_change");
    EXPECT_EQ(first.parent, kNoSpan);
    EXPECT_EQ(second.parent, first.id);
  }

  tracer.on_dvs_newview(p0, v1, 250);
  EXPECT_EQ(trace.open_count("view_change"), 1u);
  const Span first = trace.span(3);
  EXPECT_EQ(first.outcome, SpanOutcome::kCompleted);
  EXPECT_EQ(first.duration(), 150u);
  // p0's v0 tenure closed, a new view_active opened, parented to the
  // completed transition.
  EXPECT_FALSE(trace.span(1).open());
  const Span& tenure = trace.spans().back();
  EXPECT_EQ(tenure.kind, "view_active");
  EXPECT_EQ(tenure.process, p0);
  EXPECT_EQ(tenure.parent, first.id);

  const MetricsSnapshot s = metrics.snapshot();
  EXPECT_EQ(s.counters.at("trace.view_change.opened"), 2u);
  EXPECT_EQ(s.counters.at("trace.view_change.completed"), 1u);
  EXPECT_EQ(s.histograms.at("trace.view_change_us").count, 1u);
  EXPECT_EQ(s.histograms.at("trace.view_change_us").sum, 150u);
}

TEST(StackTracerTest, SupersededViewChangeIsAbandoned) {
  const ProcessId p0{0};
  const View v0{ViewId::initial(), {p0}};
  const View v1{ViewId{2, p0}, {p0}};
  const View v2{ViewId{3, p0}, {p0}};
  MetricsRegistry metrics;
  TraceLog trace;
  StackTracer tracer(metrics, trace);
  tracer.on_start(v0, 0);
  tracer.on_vs_newview(p0, v1, 10);
  tracer.on_vs_newview(p0, v2, 20);  // v1 never became primary at p0
  const Span& abandoned = trace.span(2);
  EXPECT_EQ(abandoned.outcome, SpanOutcome::kAbandoned);
  EXPECT_EQ(*abandoned.end, 20u);
  EXPECT_EQ(metrics.snapshot().counters.at("trace.view_change.abandoned"),
            1u);
}

TEST(StackTracerTest, RegistrationClosesAtTotalRegistration) {
  const ProcessId p0{0};
  const ProcessId p1{1};
  const View v0{ViewId::initial(), {p0, p1}};
  MetricsRegistry metrics;
  TraceLog trace;
  StackTracer tracer(metrics, trace);
  tracer.on_start(v0, 0);

  tracer.on_register(p0, v0, 50);
  EXPECT_EQ(trace.open_count("registration"), 1u);
  tracer.on_register(p1, v0, 80);
  // Every member registered: the view is totally registered (the
  // Invariant 4.2 hinge) and both spans close at that instant.
  EXPECT_EQ(trace.open_count("registration"), 0u);
  const MetricsSnapshot s = metrics.snapshot();
  EXPECT_EQ(s.counters.at("trace.registration.completed"), 2u);
  const HistogramSnapshot& h = s.histograms.at("trace.registration_us");
  EXPECT_EQ(h.count, 2u);
  EXPECT_EQ(h.sum, 30u + 0u);  // p0 waited 80-50, p1 closed instantly
}

TEST(StackTracerTest, DeliverySpanCoversBcastToBrcv) {
  const ProcessId p0{0};
  const ProcessId p1{1};
  const View v0{ViewId::initial(), {p0, p1}};
  MetricsRegistry metrics;
  TraceLog trace;
  StackTracer tracer(metrics, trace);
  tracer.on_start(v0, 0);
  tracer.on_bcast(p0, 7, 100);
  tracer.on_brcv(p1, p0, 7, 260);
  const Span& d = trace.spans().back();
  EXPECT_EQ(d.kind, "to_delivery");
  EXPECT_EQ(d.process, p1);
  EXPECT_EQ(d.start, 100u);
  EXPECT_EQ(*d.end, 260u);
  EXPECT_EQ(d.outcome, SpanOutcome::kCompleted);
  EXPECT_EQ(d.parent, trace.span(2).id);  // p1's view_active span
  EXPECT_EQ(metrics.snapshot().histograms.at("trace.to_delivery_us").sum,
            160u);
}

TEST(SpanInvariantTest, DetectsViolationsOnSyntheticTraces) {
  TraceLog log;
  const ProcessId p{0};
  log.open("view_change", p, 10);  // never closed
  const SpanId active = log.open("view_active", p, 0);
  log.close(active, 100);
  const SpanId d = log.open("to_delivery", p, 50);
  log.close(d, 200);  // delivered after the tenure ended
  const SpanId r1 = log.open("registration", p, 10);
  log.close(r1, 60);
  const SpanId r2 = log.open("registration", p, 40);  // overlaps r1
  log.close(r2, 80);
  const SpanInvariantReport report = check_span_invariants(log);
  EXPECT_EQ(report.open_view_change, 1u);
  EXPECT_EQ(report.non_nested_delivery, 1u);
  EXPECT_EQ(report.overlapping_registration, 1u);
  EXPECT_FALSE(report.all_zero());

  MetricsRegistry metrics;
  publish_span_invariants(report, metrics);
  const MetricsSnapshot s = metrics.snapshot();
  EXPECT_EQ(s.counters.at("trace.invariant.open_view_change"), 1u);
  EXPECT_EQ(s.counters.at("trace.invariant.non_nested_delivery"), 1u);
  EXPECT_EQ(s.counters.at("trace.invariant.overlapping_registration"), 1u);
}

// ----- full-stack determinism ------------------------------------------------

struct StackRun {
  std::string metrics_json;
  std::string trace_json;
  SpanInvariantReport invariants;
};

/// One adversarial full-stack run with observability on: scripted faults,
/// seeded client load, heal + settle. Everything below is a deterministic
/// function of (n, seed).
StackRun run_stack(std::size_t n, std::uint64_t seed) {
  tosys::ClusterConfig cc;
  cc.n_processes = n;
  cc.net.drop_probability = 0.02;
  cc.net.duplicate_probability = 0.1;
  cc.net.reorder_probability = 0.1;
  cc.net.truncate_probability = 0.01;
  tosys::Cluster cluster(cc, seed);

  net::FaultPlanConfig pc;
  pc.horizon = 2 * sim::kSecond;
  pc.events = 6;
  const net::FaultPlan plan =
      net::FaultPlan::random(seed, cluster.universe(), pc);
  plan.schedule(cluster.sim(), cluster.net());

  // A deterministic mid-run outage of the last member, held well past the
  // suspect timeout, so every (n, seed) provokes at least one
  // reconfiguration — the spans the test asserts on exist in every run.
  const ProcessId victim = *cluster.universe().rbegin();
  cluster.sim().schedule_at(300 * sim::kMillisecond,
                            [&cluster, victim] { cluster.net().pause(victim); });
  cluster.sim().schedule_at(800 * sim::kMillisecond,
                            [&cluster, victim] { cluster.net().resume(victim); });

  Rng load(seed ^ 0x0b5u);
  const std::vector<ProcessId> procs(cluster.universe().begin(),
                                     cluster.universe().end());
  std::uint64_t uid = 1;
  for (std::size_t i = 0; i < 30; ++i) {
    const auto at = static_cast<sim::Time>(
        1 + load.below(static_cast<std::size_t>(pc.horizon)));
    const ProcessId p = procs[load.below(procs.size())];
    cluster.sim().schedule_at(at, [&cluster, p, m = AppMsg{uid++, p, "x"}] {
      cluster.bcast(p, m);
    });
  }

  cluster.start();
  cluster.run_for(pc.horizon);
  cluster.net().heal();
  for (ProcessId p : cluster.universe()) cluster.net().resume(p);
  cluster.run_for(2 * sim::kSecond);

  StackRun out;
  out.invariants = check_span_invariants(cluster.trace());
  publish_span_invariants(out.invariants, cluster.metrics());
  out.metrics_json = cluster.metrics_snapshot().to_json();
  out.trace_json = cluster.trace_json();
  return out;
}

TEST(TraceDeterminismTest, RunsAreBitIdenticalPerSeed) {
  for (const std::size_t n : {2u, 3u, 4u}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const StackRun a = run_stack(n, seed);
      const StackRun b = run_stack(n, seed);
      EXPECT_EQ(a.metrics_json, b.metrics_json) << "n=" << n << " s=" << seed;
      EXPECT_EQ(a.trace_json, b.trace_json) << "n=" << n << " s=" << seed;
      // The runs actually produced spans and latency samples.
      EXPECT_NE(a.trace_json.find("view_change"), std::string::npos);
      EXPECT_NE(a.metrics_json.find("trace.to_delivery_us"),
                std::string::npos);
    }
  }
}

TEST(TraceDeterminismTest, SpanInvariantsHoldAtQuiescence) {
  for (const std::size_t n : {2u, 3u, 4u}) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const StackRun r = run_stack(n, seed);
      EXPECT_TRUE(r.invariants.all_zero())
          << "n=" << n << " seed=" << seed << ": open_view_change="
          << r.invariants.open_view_change
          << " non_nested_delivery=" << r.invariants.non_nested_delivery
          << " overlapping_registration="
          << r.invariants.overlapping_registration;
    }
  }
}

TEST(TraceDeterminismTest, SweepMetricsAreThreadCountIndependent) {
  shard::ShardChaosConfig chaos;
  chaos.plan.horizon = 2 * sim::kSecond;
  chaos.plan.events = 8;
  chaos.broadcasts = 30;
  chaos.settle = 2 * sim::kSecond;
  parallel::SeedSweepConfig sweep;
  sweep.first_seed = 1;
  sweep.num_seeds = 24;
  sweep.jobs = 1;
  const auto serial = parallel::run_chaos_sweep(sweep, chaos);
  sweep.jobs = 4;
  const auto fanned = parallel::run_chaos_sweep(sweep, chaos);
  ASSERT_FALSE(serial.first_failure.has_value());
  ASSERT_FALSE(fanned.first_failure.has_value());
  // The merged snapshot — and its serialized bytes — are identical no
  // matter how the seeds were fanned out.
  EXPECT_EQ(serial.total.metrics, fanned.total.metrics);
  EXPECT_EQ(serial.total.metrics.to_json(), fanned.total.metrics.to_json());
  EXPECT_EQ(serial.total.metrics.to_prometheus(),
            fanned.total.metrics.to_prometheus());
  EXPECT_EQ(serial.total, fanned.total);
  // Latency histograms accumulated real samples across the sweep.
  EXPECT_GT(serial.total.metrics.histograms.at("trace.to_delivery_us").count,
            0u);
  EXPECT_GT(serial.total.metrics.histograms.at("trace.view_change_us").count,
            0u);
}

}  // namespace
}  // namespace dvs::obs
