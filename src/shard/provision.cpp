#include "shard/provision.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

namespace dvs::shard {
namespace {

std::string pool_member_key(ProcessId p) {
  return "pool/" + p.to_string() + "/vs";
}

}  // namespace

std::vector<ShardAssignment> provision(const ProcessSet& members,
                                       std::size_t shards,
                                       std::size_t replication) {
  if (shards == 0) throw std::logic_error("provision: zero shards");
  if (members.empty()) throw std::logic_error("provision: empty pool");
  const std::vector<ProcessId> pool(members.begin(), members.end());
  const std::size_t r = replication == 0 ? pool.size() : replication;
  if (r > pool.size()) {
    throw std::logic_error("provision: replication exceeds the pool");
  }
  std::vector<ShardAssignment> out;
  out.reserve(shards);
  for (std::size_t k = 1; k <= shards; ++k) {
    ShardAssignment a;
    a.group = static_cast<std::uint32_t>(k);
    a.replicas.reserve(r);
    for (std::size_t j = 0; j < r; ++j) {
      a.replicas.push_back(pool[(k - 1 + j) % pool.size()]);
    }
    // Ascending replica order: the index in `replicas` is the shard-local
    // ProcessId, and keeping the map monotone means local iteration order
    // (multicasts, watermark rows) matches pool iteration order.
    std::sort(a.replicas.begin(), a.replicas.end());
    out.push_back(std::move(a));
  }
  return out;
}

std::unique_ptr<vsys::VsNode> build_pool_member(
    ProcessId p, std::size_t pool_size, net::Transport& net,
    sim::Simulator& sim, const vsys::VsConfig& config,
    vsys::VsCallbacks callbacks, storage::StableStore* store) {
  const std::string key = pool_member_key(p);
  const bool recovered = store != nullptr && store->load(key).has_value();
  std::optional<View> v0;
  if (!recovered) v0.emplace(ViewId::initial(), make_universe(pool_size));
  auto node = std::make_unique<vsys::VsNode>(p, std::move(v0), net, sim,
                                             config, std::move(callbacks));
  if (recovered) node->restore_epoch(pool_member_epoch(*store, p));
  if (store != nullptr) node->attach_storage(*store, key);
  return node;
}

std::uint64_t pool_member_epoch(const storage::StableStore& store,
                                ProcessId p) {
  return vsys::VsNode::recover_epoch(store, pool_member_key(p));
}

}  // namespace dvs::shard
