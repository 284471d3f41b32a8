// Metric sanity relations under chaos: per-seed metric snapshots of
// adversarial full-stack runs must satisfy the arithmetic the stack's
// semantics imply — deliveries bounded by sends plus duplications,
// WATERMARK frames bounded by (n-1) per VS delivery, DVS primaries bounded
// by VS installs, TO deliveries bounded by n × bcasts,
// and the span invariants (no view_change left open at quiescence, nested
// deliveries, non-overlapping registrations) all clean — across 200+
// seeds and n ∈ {2,3,4}.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "parallel/seed_sweep.h"
#include "shard/shard_chaos.h"

namespace dvs::tosys {
namespace {

std::uint64_t hist_count(const obs::MetricsSnapshot& m,
                         const std::string& name) {
  const auto it = m.histograms.find(name);
  return it == m.histograms.end() ? 0 : it->second.count;
}

shard::ShardChaosConfig quick_chaos(std::size_t n) {
  shard::ShardChaosConfig c;
  c.cluster.base.n_processes = n;
  c.plan.horizon = 2 * sim::kSecond;
  c.plan.events = 8;
  c.broadcasts = 40;
  c.settle = 2 * sim::kSecond;
  return c;
}

/// The relations every conforming seed must satisfy, stated against the
/// seed's own metric snapshot (one export path: the same counters the
/// chaos report and --metrics JSON aggregate).
void assert_sane(std::size_t n, std::uint64_t seed,
                 const shard::ChaosStats& s) {
  const obs::MetricsSnapshot& m = s.metrics;
  // Network conservation: every delivery traces back to a send or an
  // injected duplicate copy.
  const std::uint64_t sent = m.counter_sum("net.sent");
  const std::uint64_t delivered = m.counter_sum("net.delivered");
  const std::uint64_t duplicated = m.counter_sum("net.duplicated");
  EXPECT_LE(delivered, sent + duplicated) << "n=" << n << " seed=" << seed;
  EXPECT_GT(sent, 0u) << "n=" << n << " seed=" << seed;
  // The simulator runs dvsd's multiplexer and exports its drop counter
  // under the key dvsd's `stats` verb uses. With a static topology only a
  // group header cut short in flight can make a frame unroutable.
  EXPECT_TRUE(m.counters.contains("shard.unroutable"))
      << "n=" << n << " seed=" << seed;
  EXPECT_LE(m.counter_sum("shard.unroutable"), m.counter_sum("net.truncated"))
      << "n=" << n << " seed=" << seed;
  // A datagram must be delivered before it can fail to decode.
  EXPECT_LE(m.counter_sum("vs.decode_errors"), delivered)
      << "n=" << n << " seed=" << seed;
  // A WATERMARK publish follows a delivery and goes to at most the other
  // n-1 members, so each process sends at most n-1 frames per delivery.
  for (std::size_t p = 0; p < n; ++p) {
    const std::string label = "{process=\"p" + std::to_string(p) + "\"}";
    const auto published = m.counters.find("vs.watermarks_published" + label);
    const auto msgs = m.counters.find("vs.msgs_delivered" + label);
    ASSERT_NE(published, m.counters.end())
        << "n=" << n << " seed=" << seed << " p" << p;
    ASSERT_NE(msgs, m.counters.end())
        << "n=" << n << " seed=" << seed << " p" << p;
    EXPECT_LE(published->second, (n - 1) * msgs->second)
        << "n=" << n << " seed=" << seed << " p" << p;
  }
  // Primariness is a filter on VS installs: a node can accept at most the
  // views its VS layer installed.
  EXPECT_LE(m.counter_sum("dvs.views_attempted"),
            m.counter_sum("vs.views_installed"))
      << "n=" << n << " seed=" << seed;
  // Each broadcast is delivered at most once per process (TO at-most-once).
  EXPECT_LE(m.counter_sum("to.deliveries"),
            static_cast<std::uint64_t>(n) * m.counter_sum("to.bcasts"))
      << "n=" << n << " seed=" << seed;
  // Without restarts, the TO delivery counter agrees with the
  // delivery-log count shard::ChaosStats keeps.
  EXPECT_EQ(m.counter_sum("to.deliveries"), s.deliveries);
  // Span invariants at quiescence: every view change resolved, every
  // delivery inside a client-view tenure, registrations never overlapping.
  EXPECT_EQ(m.counter_sum("trace.invariant.open_view_change"), 0u)
      << "n=" << n << " seed=" << seed;
  EXPECT_EQ(m.counter_sum("trace.invariant.non_nested_delivery"), 0u)
      << "n=" << n << " seed=" << seed;
  EXPECT_EQ(m.counter_sum("trace.invariant.overlapping_registration"), 0u)
      << "n=" << n << " seed=" << seed;
  // Tracer bookkeeping closes: every opened span ends completed or
  // abandoned (view_change), and completions carry latency samples.
  EXPECT_EQ(m.counter_sum("trace.view_change.opened"),
            m.counter_sum("trace.view_change.completed") +
                m.counter_sum("trace.view_change.abandoned"))
      << "n=" << n << " seed=" << seed;
  EXPECT_EQ(hist_count(m, "trace.view_change_us"),
            m.counter_sum("trace.view_change.completed"));
  EXPECT_EQ(hist_count(m, "trace.to_delivery_us"),
            m.counter_sum("trace.to_delivery.count"));
}

TEST(ChaosMetricsTest, SanityRelationsHoldPerSeedAcrossScales) {
  std::size_t total_seeds = 0;
  for (const std::size_t n : {2u, 3u, 4u}) {
    const shard::ShardChaosConfig chaos = quick_chaos(n);
    const std::uint64_t seeds = n == 4 ? 60 : 80;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      shard::ChaosStats s;
      ASSERT_NO_THROW(s = shard::run_chaos_seed(seed, chaos))
          << "n=" << n << " seed=" << seed;
      assert_sane(n, seed, s);
      ++total_seeds;
      if (HasFatalFailure() || HasNonfatalFailure()) {
        FAIL() << "stopping at first unsane seed: n=" << n
               << " seed=" << seed;
      }
    }
  }
  EXPECT_GE(total_seeds, 200u);
}

TEST(ChaosMetricsTest, SweepTotalsSatisfyTheSameRelations) {
  // Relations of the per-seed snapshots are preserved by the seed-order
  // merge: the sweep total is just the key-wise sum.
  const shard::ShardChaosConfig chaos = quick_chaos(3);
  parallel::SeedSweepConfig sweep;
  sweep.first_seed = 1;
  sweep.num_seeds = 40;
  sweep.jobs = 0;
  const auto r = parallel::run_chaos_sweep(sweep, chaos);
  ASSERT_FALSE(r.first_failure.has_value()) << r.first_failure->message;
  assert_sane(3, 0, r.total);
  // The latency histograms actually accumulated across the sweep.
  EXPECT_GT(r.total.metrics.histograms.at("trace.view_change_us").count, 0u);
  EXPECT_GT(r.total.metrics.histograms.at("trace.registration_us").count,
            0u);
  EXPECT_GT(r.total.metrics.histograms.at("trace.to_delivery_us").count, 0u);
}

}  // namespace
}  // namespace dvs::tosys
