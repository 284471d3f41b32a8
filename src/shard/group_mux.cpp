#include "shard/group_mux.h"

#include <stdexcept>

namespace dvs::shard {

GroupMux::Port& GroupMux::open(std::uint32_t group,
                               std::vector<ProcessId> pool_replicas) {
  if (group == 0) {
    throw std::logic_error("GroupMux: group 0 is untagged traffic");
  }
  auto [it, inserted] = ports_.try_emplace(
      group, std::make_unique<Port>(*this, group, std::move(pool_replicas)));
  if (!inserted) {
    throw std::logic_error("GroupMux: group already open: " +
                           std::to_string(group));
  }
  return *it->second;
}

void GroupMux::Untagged::attach(ProcessId p, Handler handler) {
  mux_.untagged_handlers_[p] = std::move(handler);
  mux_.ensure_attached(p);
}

void GroupMux::close(std::uint32_t group) {
  ports_.erase(group);
  std::erase_if(handlers_,
                [group](const auto& h) { return h.first.first == group; });
}

void GroupMux::set_transfer_handler(ProcessId pool_p,
                                    TransferHandler handler) {
  transfer_handlers_[pool_p] = std::move(handler);
  ensure_attached(pool_p);
}

void GroupMux::send_transfer(ProcessId pool_from, ProcessId pool_to,
                             const TransferFrame& frame) {
  base_.send(pool_from, pool_to, encode_transfer(frame));
}

void GroupMux::ensure_attached(ProcessId pool_p) {
  if (attached_.contains(pool_p)) return;
  attached_.insert(pool_p);
  base_.attach(pool_p, [this, pool_p](ProcessId from, const Bytes& payload) {
    dispatch(pool_p, from, payload);
  });
}

void GroupMux::dispatch(ProcessId pool_to, ProcessId pool_from,
                        const Bytes& payload) {
  // Transfer frames (0x48) first: their tag sits outside both the group
  // frame tag (0x47) and the vsys/batch tag ranges, and a joiner must be
  // reachable before any port for the migrating group exists on this node.
  if (looks_like_transfer_frame(payload)) {
    auto it = transfer_handlers_.find(pool_to);
    if (it == transfer_handlers_.end()) {
      ++unroutable_;
      return;
    }
    TransferFrame frame;
    try {
      frame = decode_transfer(payload);
    } catch (const DecodeError&) {
      ++unroutable_;
      return;
    }
    it->second(pool_from, frame);
    return;
  }
  if (!vsys::looks_like_group_frame(payload)) {
    auto it = untagged_handlers_.find(pool_to);
    if (it != untagged_handlers_.end()) {
      it->second(pool_from, payload);
    } else {
      ++unroutable_;
    }
    return;
  }
  try {
    vsys::decode_group_frame(payload, rx_);
  } catch (const DecodeError&) {
    // A frame truncated below its header is indistinguishable from any
    // other corrupt datagram: drop it here; nothing above could route it.
    ++unroutable_;
    return;
  }
  auto it = handlers_.find({rx_.group, pool_to});
  if (it == handlers_.end()) {
    ++unroutable_;
    return;
  }
  it->second(pool_from, rx_.payload);
}

const Bytes& GroupMux::framed(std::uint32_t group, const Bytes& payload) {
  scratch_.clear();
  vsys::encode_group_frame(group, payload, scratch_);
  return scratch_.buffer();
}

ProcessId GroupMux::Port::to_local(ProcessId pool) const {
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    if (pool_[i] == pool) return ProcessId(static_cast<std::uint32_t>(i));
  }
  throw std::logic_error("GroupMux::Port: pool process not a replica: " +
                         pool.to_string());
}

void GroupMux::Port::attach(ProcessId local, Handler handler) {
  const ProcessId pool_p = to_pool(local);
  mux_.handlers_[{group_, pool_p}] =
      [this, handler = std::move(handler)](ProcessId from,
                                           const Bytes& payload) {
        // A correctly tagged frame from a process outside this shard's
        // replica set is as unroutable as an unknown group id.
        for (std::size_t i = 0; i < pool_.size(); ++i) {
          if (pool_[i] == from) {
            handler(ProcessId(static_cast<std::uint32_t>(i)), payload);
            return;
          }
        }
        ++mux_.unroutable_;
      };
  mux_.ensure_attached(pool_p);
}

void GroupMux::Port::remap(ProcessId local, ProcessId pool) {
  ProcessId& slot = pool_.at(local.value());
  if (slot == pool) return;
  mux_.handlers_.erase({group_, slot});
  slot = pool;
}

void GroupMux::Port::send(ProcessId from, ProcessId to,
                          const Bytes& payload) {
  mux_.base_.send(to_pool(from), to_pool(to), mux_.framed(group_, payload));
}

void GroupMux::Port::multicast(ProcessId from, const ProcessSet& targets,
                               const Bytes& payload) {
  const Bytes& frame = mux_.framed(group_, payload);
  const ProcessId pool_from = to_pool(from);
  for (ProcessId to : targets) mux_.base_.send(pool_from, to_pool(to), frame);
}

}  // namespace dvs::shard
