// GroupMux: in-band group multiplexing over any net::Transport — the one
// multiplexer of the simulated ShardCluster and of sharded dvsd.
//
// A wire carries exactly bytes, so every datagram of a shard column is
// prefixed with the vsys::GroupFrame header (kGroupFrameTag | varuint
// group_id | payload), and the receiving side demuxes on it. GroupMux
// installs ONE handler per pool process on the underlying transport and fans
// frames out to the per-group ports. Traffic without a group frame belongs
// to the pool membership group, which runs over the mux's untagged port;
// state-transfer frames (0x48) have their own per-destination handler.
//
// Each port translates shard-local ProcessIds (0..r-1) to pool ids, so a
// tosys column or a daemon::NodeRuntime runs over a port unmodified. Over a
// SimNetwork one mux holds every pool process's handlers; in dvsd it holds
// only the daemon's own.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/serialize.h"
#include "common/types.h"
#include "common/view.h"
#include "net/transport.h"
#include "shard/reprovision.h"
#include "vsys/wire.h"

namespace dvs::shard {

class GroupMux {
 public:
  class Port;

  explicit GroupMux(net::Transport& base) : base_(base), untagged_(*this) {}
  GroupMux(const GroupMux&) = delete;
  GroupMux& operator=(const GroupMux&) = delete;

  /// Opens the port for `group`; `pool_replicas` ascending, local id i =
  /// pool_replicas[i]. The port is owned by the mux and valid for its
  /// lifetime. Throws on a duplicate group or group 0 (0 marks untagged
  /// traffic — see untagged()).
  Port& open(std::uint32_t group, std::vector<ProcessId> pool_replicas);

  /// The pool membership group's Transport: datagrams without a group
  /// frame, sent raw on the base transport, addressed by pool id.
  [[nodiscard]] net::Transport& untagged() { return untagged_; }

  /// Closes the port for `group`: the port object is destroyed and every
  /// handler it installed is removed (subsequent frames for the group count
  /// as unroutable). No-op on an unknown group. Used by dynamic
  /// re-provisioning when a column this node hosted migrates away.
  void close(std::uint32_t group);

  /// State-transfer frames (shard/reprovision.h, tag 0x48) ride the same
  /// socket but OUTSIDE the group framing — a joiner needs them before its
  /// column (and hence its port) exists. The per-destination handler
  /// receives the decoded frame; malformed transfer datagrams are dropped
  /// and counted as unroutable.
  using TransferHandler =
      std::function<void(ProcessId from, const TransferFrame&)>;
  void set_transfer_handler(ProcessId pool_p, TransferHandler handler);
  void send_transfer(ProcessId pool_from, ProcessId pool_to,
                     const TransferFrame& frame);

  /// Datagrams dropped because nothing could route them — a group frame
  /// too short to decode, a group with no open port here, no handler
  /// attached for the destination, or a sender outside the group's replica
  /// set — counted.
  [[nodiscard]] std::uint64_t unroutable() const { return unroutable_; }

 private:
  friend class Port;

  class Untagged : public net::Transport {
   public:
    explicit Untagged(GroupMux& mux) : mux_(mux) {}
    void attach(ProcessId p, Handler handler) override;
    void send(ProcessId from, ProcessId to, const Bytes& payload) override {
      mux_.base_.send(from, to, payload);
    }
    [[nodiscard]] std::size_t max_datagram_size() const override {
      return mux_.base_.max_datagram_size();
    }
    [[nodiscard]] const net::NetStats& stats() const override {
      return mux_.base_.stats();
    }
    [[nodiscard]] const ProcessSet& processes() const override {
      return mux_.base_.processes();
    }

   private:
    GroupMux& mux_;
  };

  /// Installs the demux handler on the base transport for pool_p (idempotent).
  void ensure_attached(ProcessId pool_p);
  void dispatch(ProcessId pool_to, ProcessId pool_from, const Bytes& payload);
  /// `payload` in `group`'s frame, encoded into the mux's scratch writer;
  /// valid until the next call.
  const Bytes& framed(std::uint32_t group, const Bytes& payload);

  net::Transport& base_;
  Untagged untagged_;
  std::map<std::uint32_t, std::unique_ptr<Port>> ports_;
  // (group, pool destination) -> translated handler installed by the port.
  std::map<std::pair<std::uint32_t, ProcessId>, net::Transport::Handler>
      handlers_;
  std::map<ProcessId, net::Transport::Handler> untagged_handlers_;
  std::map<ProcessId, TransferHandler> transfer_handlers_;
  ProcessSet attached_;
  // Reused encode/decode buffers: every base transport copies on send, and
  // handlers consume a delivered payload before returning.
  Writer scratch_;
  vsys::GroupFrame rx_;
  std::uint64_t unroutable_ = 0;
};

/// One group's Transport view. Lives inside the mux; see GroupMux::open.
class GroupMux::Port : public net::Transport {
 public:
  Port(GroupMux& mux, std::uint32_t group, std::vector<ProcessId> pool)
      : mux_(mux), group_(group), pool_(std::move(pool)) {
    local_ = make_universe(pool_.size());
  }

  [[nodiscard]] ProcessId to_pool(ProcessId local) const {
    return pool_.at(local.value());
  }
  [[nodiscard]] ProcessId to_local(ProcessId pool) const;
  /// Re-points shard-local id `local` at a different pool process — the
  /// volatile half of a slot migration — and drops the departed host's
  /// receive handler: frames still in flight to it become unroutable. In
  /// the simulator one mux holds every process's handlers, and the departed
  /// one would outlive the column replica it points into; in dvsd a daemon
  /// installs only its own handler, so the erase is a no-op there.
  /// Post-remap the pool list may be non-ascending; to_local's linear scan
  /// stays correct.
  void remap(ProcessId local, ProcessId pool);

  void attach(ProcessId local, Handler handler) override;
  void send(ProcessId from, ProcessId to, const Bytes& payload) override;
  /// Encodes the group frame once for every target.
  void multicast(ProcessId from, const ProcessSet& targets,
                 const Bytes& payload) override;

  [[nodiscard]] std::size_t max_datagram_size() const override {
    // The group frame (tag + varuint) rides inside the base datagram.
    const std::size_t base = mux_.base_.max_datagram_size();
    return base > 6 ? base - 6 : 0;
  }
  [[nodiscard]] const net::NetStats& stats() const override {
    return mux_.base_.stats();
  }
  [[nodiscard]] const ProcessSet& processes() const override {
    return local_;
  }

 private:
  GroupMux& mux_;
  std::uint32_t group_;
  std::vector<ProcessId> pool_;  // ascending; index = local id
  ProcessSet local_;
};

}  // namespace dvs::shard
