#include "net/sim_network.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "net/batcher.h"

namespace dvs::net {

SimNetwork::SimNetwork(sim::Simulator& sim, Rng& rng, NetConfig config,
                       ProcessSet processes)
    : sim_(sim),
      rng_(rng),
      config_(config),
      processes_(std::move(processes)),
      arena_(config.arena_max_retained) {
  if (!config_.region_delay.empty()) {
    const std::size_t regions = config_.region_delay.size();
    for (const auto& row : config_.region_delay) {
      if (row.size() != regions) {
        throw std::logic_error("SimNetwork: region_delay matrix not square");
      }
    }
    for (ProcessId p : processes_) {
      if (region_of(p) >= regions) {
        throw std::logic_error("SimNetwork: process " + p.to_string() +
                               " assigned to region outside the delay matrix");
      }
    }
  }
}

void SimNetwork::attach(ProcessId p, Handler handler) {
  if (!processes_.contains(p)) {
    throw std::logic_error("attach: unknown process " + p.to_string());
  }
  handlers_[p] = std::move(handler);
}

int SimNetwork::group_of(ProcessId p) const {
  auto it = partition_group_.find(p);
  return it == partition_group_.end() ? -1 : it->second;
}

bool SimNetwork::connected(ProcessId a, ProcessId b) const {
  if (paused_.contains(a) || paused_.contains(b)) return false;
  if (partition_group_.empty()) return true;
  const int ga = group_of(a);
  const int gb = group_of(b);
  // Unmentioned processes are singleton groups: connected only to self.
  if (ga == -1 || gb == -1) return a == b;
  return ga == gb;
}

std::size_t SimNetwork::region_of(ProcessId p) const {
  const std::size_t i = p.value();
  return i < config_.process_region.size() ? config_.process_region[i] : 0;
}

sim::Time SimNetwork::link_base_delay(ProcessId from, ProcessId to) const {
  if (config_.region_delay.empty()) return config_.base_delay;
  return config_.region_delay[region_of(from)][region_of(to)];
}

void SimNetwork::schedule_delivery(ProcessId from, ProcessId to,
                                   const Bytes& payload) {
  sim::Time delay = link_base_delay(from, to);
  if (config_.jitter_mean_us > 0.0) {
    delay += static_cast<sim::Time>(rng_.exponential(config_.jitter_mean_us));
  }
  sim::Time at = sim_.now() + delay;
  if (config_.reorder_probability > 0.0 &&
      rng_.chance(config_.reorder_probability)) {
    // Reordered delivery: bypass the link clock entirely — later sends can
    // overtake this one within the bounded window.
    if (config_.reorder_window > 0) {
      at += static_cast<sim::Time>(
          rng_.below(static_cast<std::size_t>(config_.reorder_window) + 1));
    }
    ++stats_.reordered;
  } else {
    // FIFO per ordered pair: never deliver before an earlier send on the
    // link.
    auto& clock = link_clock_[{from, to}];
    at = std::max(at, clock + 1);
    clock = at;
  }
  ++stats_.datagrams;
  stats_.wire_bytes += payload.size();
  // The in-flight bytes ride in a recycled arena slot; the closure carries
  // only the handle (fits the simulator's inline callback storage), so a
  // steady-state send performs no heap allocation.
  const MsgArena::Handle h = arena_.acquire();
  arena_.at(h) = payload;
  sim_.schedule_at(at, [this, from, to, h] {
    deliver_payload(from, to, arena_.at(h));
    arena_.release(h);
  });
}

void SimNetwork::deliver_payload(ProcessId from, ProcessId to,
                                 const Bytes& payload) {
  // Re-check connectivity at delivery: partitions and pauses that
  // happened in flight lose the message.
  if (!connected(from, to)) {
    ++stats_.dropped_partition;
    return;
  }
  auto it = handlers_.find(to);
  if (it == handlers_.end()) return;
  // Coalesced flushes travel as BATCH envelopes; single-message flushes
  // (and all unbatched traffic) travel as the raw frame. The tag byte
  // (outside the vsys wire Tag range) disambiguates on delivery.
  if (!config_.batching || !looks_like_batch(payload)) {
    ++stats_.delivered;
    it->second(from, payload);
    return;
  }
  // Salvage rather than strict-decode so an envelope truncated in flight
  // still yields its intact prefix frames; the damaged tail arrives as
  // one corrupt frame the receiver rejects like any other corrupt
  // datagram. Frames are handed up through one reused scratch buffer —
  // handlers decode synchronously and must not retain the reference.
  const bool clean = visit_batch_frames(
      payload, [this, from, &it](const std::byte* p, std::size_t len) {
        frame_scratch_.assign(p, p + len);
        ++stats_.delivered;
        it->second(from, frame_scratch_);
      });
  if (!clean) ++stats_.batch_salvaged;
}

void SimNetwork::enqueue_batch(ProcessId from, ProcessId to,
                               const Bytes& payload) {
  PendingBatch& batch = pending_[link_key(from, to)];
  batch.bytes += payload.size();
  const MsgArena::Handle h = arena_.acquire();
  arena_.at(h) = payload;
  batch.handles.push_back(h);
  if (batch.handles.size() >= config_.batch_max_msgs ||
      batch.bytes >= config_.batch_max_bytes) {
    ++stats_.batch_cap_flushes;
    flush_batch(from, to);
    return;
  }
  if (batch.flush_scheduled) return;
  batch.flush_scheduled = true;
  if (config_.batch_window == 0) {
    // End-of-instant coalescing: one sweep event flushes every dirty link,
    // in the order their first message arrived (deterministic).
    dirty_.emplace_back(from, to);
    if (!sweep_scheduled_) {
      sweep_scheduled_ = true;
      sim_.schedule_at(sim_.now(), [this] { flush_all_batches(); });
    }
  } else {
    sim_.schedule_at(sim_.now() + config_.batch_window,
                     [this, from, to] { flush_batch(from, to); });
  }
}

void SimNetwork::flush_all_batches() {
  sweep_scheduled_ = false;
  // Index loop: flush_batch never appends to dirty, but stay safe against
  // iterator invalidation if that ever changes.
  for (std::size_t i = 0; i < dirty_.size(); ++i) {
    flush_batch(dirty_[i].first, dirty_[i].second);
  }
  dirty_.clear();
}

void SimNetwork::flush_batch(ProcessId from, ProcessId to) {
  auto it = pending_.find(link_key(from, to));
  if (it == pending_.end()) return;
  PendingBatch& batch = it->second;
  batch.flush_scheduled = false;
  // A cap flush may already have emptied this batch; the sweep (or a
  // window event) then finds nothing to do.
  const std::size_t n = batch.handles.size();
  if (n == 0) return;
  if (batch_fill_ != nullptr) batch_fill_->observe(n);
    // A flush that coalesced nothing goes out as the raw frame — the envelope
  // framing only pays for itself when it carries several messages, and the
  // receiver disambiguates by the tag byte. Multi-frame envelopes are
  // encoded into one reused Writer straight from the arena slots, so
  // flushing allocates nothing in steady state.
  const Bytes* datagram;
  if (n == 1) {
    datagram = &arena_.at(batch.handles.front());
  } else {
    ++stats_.batches;
    stats_.batched_msgs += n;
    batch_writer_.clear();
    batch_writer_.u8(kBatchTag);
    batch_writer_.varuint(n);
    for (MsgArena::Handle h : batch.handles) {
      batch_writer_.bytes_field(arena_.at(h));
    }
    datagram = &batch_writer_.buffer();
  }
  // The in-flight corruption fault applies to the datagram actually on the
  // wire: one truncation draw per datagram, potentially damaging the tail
  // of a whole batch. The mutation lands in a scratch copy so the writer /
  // arena slot stays intact.
  if (config_.truncate_probability > 0.0 && !datagram->empty() &&
      rng_.chance(config_.truncate_probability)) {
    const auto keep = static_cast<std::ptrdiff_t>(rng_.below(datagram->size()));
    trunc_scratch_.assign(datagram->begin(), datagram->begin() + keep);
    datagram = &trunc_scratch_;
    ++stats_.truncated;
  }
  schedule_delivery(from, to, *datagram);
  for (MsgArena::Handle h : batch.handles) arena_.release(h);
  batch.handles.clear();  // keeps the vector's capacity for the next batch
  batch.bytes = 0;
}

void SimNetwork::send(ProcessId from, ProcessId to, const Bytes& payload) {
  ++stats_.sent;
  stats_.bytes_sent += payload.size();
  if (paused_.contains(from) || paused_.contains(to)) {
    ++stats_.dropped_crash;
    return;
  }
  if (!connected(from, to)) {
    ++stats_.dropped_partition;
    return;
  }
  if (config_.drop_probability > 0.0 && rng_.chance(config_.drop_probability)) {
    ++stats_.dropped_random;
    return;
  }
  const Bytes* wire = &payload;
  if (!config_.batching && config_.truncate_probability > 0.0 &&
      !payload.empty() && rng_.chance(config_.truncate_probability)) {
    // Corrupt rather than drop: deliver a proper prefix (possibly empty).
    // When batching, the truncation draw happens per envelope at flush
    // instead (flush_batch). The caller's buffer is const, so the mutated
    // copy lands in reused scratch.
    const auto keep = static_cast<std::ptrdiff_t>(rng_.below(payload.size()));
    trunc_scratch_.assign(payload.begin(), payload.begin() + keep);
    wire = &trunc_scratch_;
    ++stats_.truncated;
  }
  // Extra copies first decide how many, then every copy (original included)
  // is scheduled through the same delay/reorder machinery. Under batching
  // the copies ride as extra frames of the same envelope.
  std::size_t extra = 0;
  while (extra < config_.max_duplicates &&
         config_.duplicate_probability > 0.0 &&
         rng_.chance(config_.duplicate_probability)) {
    ++extra;
  }
  stats_.duplicated += extra;
  if (config_.batching) {
    for (std::size_t copy = 0; copy < extra; ++copy) {
      enqueue_batch(from, to, *wire);
    }
    enqueue_batch(from, to, *wire);
    return;
  }
  for (std::size_t copy = 0; copy < extra; ++copy) {
    schedule_delivery(from, to, *wire);
  }
  schedule_delivery(from, to, *wire);
}

void SimNetwork::set_partition(const std::vector<ProcessSet>& groups) {
  partition_group_.clear();
  int index = 0;
  for (const ProcessSet& group : groups) {
    for (ProcessId p : group) {
      if (partition_group_.contains(p)) {
        throw std::logic_error("set_partition: process in two groups");
      }
      partition_group_[p] = index;
    }
    ++index;
  }
}

void SimNetwork::heal() { partition_group_.clear(); }

void SimNetwork::bind_metrics(obs::MetricsRegistry& metrics) {
  metrics.add_collector([this, &metrics] {
    metrics.counter("net.sent").set(stats_.sent);
    metrics.counter("net.delivered").set(stats_.delivered);
    metrics.counter("net.dropped_random").set(stats_.dropped_random);
    metrics.counter("net.dropped_partition").set(stats_.dropped_partition);
    metrics.counter("net.dropped_crash").set(stats_.dropped_crash);
    metrics.counter("net.bytes_sent").set(stats_.bytes_sent);
    metrics.counter("net.duplicated").set(stats_.duplicated);
    metrics.counter("net.reordered").set(stats_.reordered);
    metrics.counter("net.truncated").set(stats_.truncated);
    metrics.counter("net.datagrams").set(stats_.datagrams);
    metrics.counter("net.wire_bytes").set(stats_.wire_bytes);
    metrics.counter("net.batches").set(stats_.batches);
    metrics.counter("net.batched_msgs").set(stats_.batched_msgs);
    metrics.counter("net.batch_cap_flushes").set(stats_.batch_cap_flushes);
    metrics.counter("net.batch_salvaged").set(stats_.batch_salvaged);
    const MsgArena::Stats& a = arena_.stats();
    metrics.counter("arena.acquires").set(a.acquires);
    metrics.counter("arena.reuses").set(a.reuses);
    metrics.counter("arena.exhausted_acquires").set(a.exhausted_acquires);
    metrics.counter("arena.trimmed_releases").set(a.trimmed_releases);
    metrics.gauge("arena.live").set(static_cast<std::int64_t>(a.live));
    metrics.gauge("arena.peak_live").set(
        static_cast<std::int64_t>(a.peak_live));
    metrics.gauge("arena.slots").set(static_cast<std::int64_t>(a.slots));
    metrics.gauge("net.paused").set(
        static_cast<std::int64_t>(paused_.size()));
    int groups = 0;
    for (const auto& [p, g] : partition_group_) groups = std::max(groups, g + 1);
    metrics.gauge("net.partition_groups").set(groups);
  });
  if (config_.batching) {
    // Frames per flushed envelope: how well the hot paths coalesce.
    batch_fill_ = &metrics.histogram("net.batch_fill", {1, 2, 4, 8, 16, 32});
  }
}

void SimNetwork::pause(ProcessId p) { paused_.insert(p); }

void SimNetwork::resume(ProcessId p) { paused_.erase(p); }

}  // namespace dvs::net
