// FaultPlan: a timed, serializable script of network faults.
//
// A plan is an ordered list of crash / recover / partition / heal /
// drop-window / dup-burst events with absolute simulated times. Plans are
// generated deterministically from a seed (FaultPlan::random), serialize to
// a line-oriented text form (to_string/parse round-trips exactly), and are
// applied to a run by scheduling every event into the Simulator
// (FaultPlan::schedule) — so the adversarial schedule that produced a
// violation can be dumped, stored, edited and replayed bit-identically.
//
// The chaos harness (shard/shard_chaos.h, `model_checker --chaos`) drives
// FaultPlan-shaped adversaries against the full distributed stack with the
// spec-conformance oracles attached.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "common/view.h"
#include "net/sim_network.h"
#include "sim/simulator.h"

namespace dvs::net {

/// One timed fault. Which fields are meaningful depends on `kind`:
///   kCrash/kRecover — `target`. NOTE: kCrash is *pause* semantics — the
///                     process goes silent but keeps its volatile state,
///                     and kRecover resumes it intact (SimNetwork::pause);
///   kRestart        — `target`. A genuine crash-restart: the process
///                     loses all volatile state and is rebuilt from its
///                     stable storage (needs a ScheduleHooks::restart
///                     implementation; a no-op without one);
///   kPartition      — `groups`;
///   kHeal           — nothing beyond `at`;
///   kDropWindow     — `duration`, `probability` (random-drop rate inside
///                     the window; the pre-plan rate is restored after);
///   kDupBurst       — `duration`, `probability` (duplicate rate inside the
///                     window, same restore contract).
struct FaultEvent {
  enum class Kind : std::uint8_t {
    kCrash,
    kRecover,
    kPartition,
    kHeal,
    kDropWindow,
    kDupBurst,
    kRestart,
  };

  Kind kind = Kind::kHeal;
  sim::Time at = 0;
  ProcessId target{};
  std::vector<ProcessSet> groups;
  sim::Time duration = 0;
  double probability = 0.0;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// Shape of a randomly generated plan: how many events, over which time
/// span, and the mix of fault kinds.
struct FaultPlanConfig {
  /// Quiet prefix before the first fault (lets the stack install v0 and
  /// settle), and the time of the last scripted event.
  sim::Time warmup = 300 * sim::kMillisecond;
  sim::Time horizon = 5 * sim::kSecond;
  /// Number of scripted events.
  std::size_t events = 12;
  /// Relative weights of the fault kinds (need not sum to 1). Crash and
  /// recover draws degrade gracefully: a crash with everyone already paused
  /// becomes a recover and vice versa.
  double w_partition = 0.30;
  double w_heal = 0.20;
  double w_crash = 0.15;
  double w_recover = 0.15;
  double w_drop_window = 0.10;
  double w_dup_burst = 0.10;
  /// Crash-restart weight. Defaults to 0 so existing seeds generate
  /// byte-identical plans; chaos configs that exercise persistence turn it
  /// up explicitly.
  double w_restart = 0.0;
  /// At most this many processes paused at once (0 = n - 1, keeping one
  /// process alive so the run is never fully dark).
  std::size_t max_paused = 0;
  /// Drop-window / dup-burst parameters.
  double drop_probability = 0.4;
  double dup_probability = 0.5;
  sim::Time window_min = 100 * sim::kMillisecond;
  sim::Time window_max = 600 * sim::kMillisecond;
};

struct FaultPlan {
  std::vector<FaultEvent> events;  // sorted by `at`

  /// Deterministically generates a plan for `universe` from `seed`: same
  /// seed, universe and config → identical plan, on every platform.
  [[nodiscard]] static FaultPlan random(std::uint64_t seed,
                                        const ProcessSet& universe,
                                        const FaultPlanConfig& config = {});

  /// Line-oriented text form, one event per line, e.g.
  ///   crash @400000 2
  ///   partition @1200000 0,1|2
  ///   drop @2500000 +300000 0.4
  /// parse(to_string()) reproduces the plan exactly (doubles are printed
  /// with round-trip precision). parse throws std::runtime_error on
  /// malformed input.
  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] static FaultPlan parse(const std::string& text);

  /// Out-of-band actions a plan needs from the layer that owns the nodes
  /// (the network can pause a process but cannot rebuild one).
  struct ScheduleHooks {
    /// Tear the process down and rebuild it from stable storage
    /// (tosys::Cluster::restart). kRestart events are no-ops without it.
    std::function<void(ProcessId)> restart;
    /// Upgrade kCrash events to real crashes: the process still pauses for
    /// the kCrash..kRecover window, but its volatile state is wiped at the
    /// crash instant (restart hook fires while paused), so the kRecover
    /// brings back a node that only remembers what it persisted. Lets one
    /// plan run under both pause and crash-restart semantics.
    bool crashes_restart = false;
  };

  /// Schedules every event into `sim` against `net`. The baseline drop and
  /// duplicate probabilities restored at the end of a window are captured
  /// from `net.config()` at this call, so overlapping windows still restore
  /// the pre-plan rates. Call before the simulation passes the first
  /// event's time.
  void schedule(sim::Simulator& sim, SimNetwork& net) const;
  void schedule(sim::Simulator& sim, SimNetwork& net,
                ScheduleHooks hooks) const;

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

[[nodiscard]] std::string to_string(FaultEvent::Kind kind);

}  // namespace dvs::net
