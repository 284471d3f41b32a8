#include "daemon/daemon.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "shard/shard_cluster.h"

namespace dvs::daemon {

namespace {

/// Joiner-side retry period for the state-transfer request (the donor may
/// itself still be installing the new pool view when the first one lands).
constexpr sim::Time kJoinRetryPeriod = 500 * sim::kMillisecond;

/// Snapshot chunk ceiling: comfortably under the default max_datagram with
/// room for the transfer header.
constexpr std::size_t kTransferChunk = 32 * 1024;

/// assignments := varuint count | (varuint group, varuint r, process_id*r)*
Bytes encode_assignments(const std::vector<shard::ShardAssignment>& as) {
  Writer w;
  w.varuint(as.size());
  for (const shard::ShardAssignment& a : as) {
    w.varuint(a.group);
    w.varuint(a.replicas.size());
    for (const ProcessId p : a.replicas) w.process_id(p);
  }
  return w.take();
}

std::vector<shard::ShardAssignment> decode_assignments(const Bytes& data) {
  Reader r(data);
  std::vector<shard::ShardAssignment> as(r.varuint());
  for (shard::ShardAssignment& a : as) {
    a.group = static_cast<std::uint32_t>(r.varuint());
    a.replicas.resize(r.varuint());
    for (ProcessId& p : a.replicas) p = r.process_id();
  }
  r.expect_exhausted();
  return as;
}

sockaddr_in make_addr(const net::UdpEndpoint& ep) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  if (inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("daemon: bad IPv4 address '" + ep.host + "'");
  }
  return addr;
}

std::uint64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace

std::uint64_t realtime_us() {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000ULL;
}

Daemon::Daemon(DaemonConfig config) : config_(std::move(config)) {
  config_.validate();
  const net::UdpEndpoint& self_ep = config_.peers.at(config_.node);
  net::UdpConfig udp;
  udp.self = config_.node;
  udp.bind_host = self_ep.host;
  udp.bind_port = self_ep.port;
  udp.max_datagram = config_.max_datagram;
  udp.drop_probability = config_.drop;
  udp.drop_seed = config_.seed;
  transport_ =
      std::make_unique<net::UdpTransport>(udp, make_universe(config_.n));
  for (const auto& [p, ep] : config_.peers) transport_->set_peer(p, ep);

  // Control socket: same epoll instance, so one wait serves both.
  ctl_fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (ctl_fd_ < 0) {
    throw std::runtime_error(std::string("daemon: control socket(): ") +
                             std::strerror(errno));
  }
  sockaddr_in ctl_addr = make_addr(config_.control);
  if (::bind(ctl_fd_, reinterpret_cast<const sockaddr*>(&ctl_addr),
             sizeof(ctl_addr)) != 0) {
    const int err = errno;
    ::close(ctl_fd_);
    ctl_fd_ = -1;
    throw std::runtime_error("daemon: control bind(" +
                             config_.control.to_string() +
                             "): " + std::strerror(err));
  }
  socklen_t len = sizeof(ctl_addr);
  ::getsockname(ctl_fd_, reinterpret_cast<sockaddr*>(&ctl_addr), &len);
  control_port_ = ntohs(ctl_addr.sin_port);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = ctl_fd_;
  if (::epoll_ctl(transport_->epoll_fd(), EPOLL_CTL_ADD, ctl_fd_, &ev) != 0) {
    const int err = errno;
    ::close(ctl_fd_);
    ctl_fd_ = -1;
    throw std::runtime_error(std::string("daemon: epoll_ctl(control): ") +
                             std::strerror(err));
  }

  build_columns();
  transport_->bind_metrics(metrics_);
  t0_ns_ = monotonic_ns();
}

void Daemon::build_columns() {
  if (config_.shards == 0) {
    open_column(shard::ShardAssignment{}, 0);
    return;
  }
  // One column per shard whose provisioned replica set contains this node.
  // All columns share the one UDP socket: GroupMux prefixes every datagram
  // with the vsys::GroupFrame header and demuxes on receive.
  mux_ = std::make_unique<shard::GroupMux>(*transport_);
  assignments_ = shard::provision(make_universe(config_.n), config_.shards,
                                  config_.replication);
  if (config_.dynamic) {
    pool_store_ =
        std::make_unique<storage::FileStableStore>(config_.wal_dir + "/pool");
    // A restarted daemon must rejoin under the topology it last applied,
    // not the initial provisioning — migrated columns would otherwise be
    // misrouted until the next view change. Groups this daemon was still
    // JOINING at crash time are persisted with their pre-join row (see
    // persist_assignments), so a crash mid-transfer restarts without the
    // slot and the next pool view re-plans the move — half-written journals
    // can never masquerade as the column's established state.
    const std::optional<Bytes> stored = pool_store_->load("assignments");
    if (stored.has_value() && !stored->empty()) {
      assignments_ = decode_assignments(*stored);
    }
  }
  for (shard::ShardAssignment& a : assignments_) {
    // Roll-forward (shard::recover_episode): an episode that crashed after
    // its commit marker finishes here — journals installed, the slot
    // adopted durably, the column opened with its HANDOFF — and only then
    // is the marker cleared, so a crash anywhere in between re-runs it.
    // The episode runs on the same store object the column then owns: a
    // second object over the directory would buffer its own records and
    // could hide the other's.
    std::unique_ptr<storage::FileStableStore> gstore;
    std::error_code ec;
    if (config_.dynamic &&
        std::filesystem::is_directory(column_wal_dir(a.group), ec)) {
      gstore =
          std::make_unique<storage::FileStableStore>(column_wal_dir(a.group));
      storage::FileStableStore* store = gstore.get();
      for (std::size_t i = 0; i < a.replicas.size(); ++i) {
        shard::EpisodeHooks hooks;
        hooks.cutover = [this, &a, &gstore, i](const shard::MigrationMarker& m) {
          a.replicas[i] = m.to;
          persist_assignments();
          open_column(a, m.next, std::move(gstore));
        };
        (void)shard::recover_episode(
            *store, ProcessId(static_cast<std::uint32_t>(i)), hooks);
      }
    }
    const bool hosted = std::find(a.replicas.begin(), a.replicas.end(),
                                  config_.node) != a.replicas.end();
    if (hosted && column_for(a.group) == nullptr) {
      open_column(a, 0, std::move(gstore));
    }
  }
  router_ = shard::ShardRouter(config_.shards);
  router_.set_assignments(assignments_);
  // Contact resolution starts from the full universe; with a pool
  // membership group it is refreshed from every live view installed
  // (apply_pool_view), so clients chase replicas that actually answer.
  router_.set_pool_view(make_universe(config_.n));
  if (config_.dynamic) {
    mux_->set_transfer_handler(
        config_.node, [this](ProcessId from, const shard::TransferFrame& f) {
          handle_transfer(from, f);
        });
    // The pool membership group runs untagged on the shared socket: column
    // traffic is group-framed and transfer frames are 0x48-tagged.
    vsys::VsCallbacks cb;
    cb.on_newview = [this](const View& v) { apply_pool_view(v); };
    pool_vs_ = shard::build_pool_member(config_.node, config_.n,
                                        mux_->untagged(), sim_,
                                        config_.vs_config(), std::move(cb),
                                        pool_store_.get());
  }
}

std::string Daemon::column_wal_dir(std::uint32_t group) const {
  // Shard-local ids repeat across groups, so each shard column gets its own
  // journal namespace; the unsharded node journals at the root.
  if (group == 0) return config_.wal_dir;
  return config_.wal_dir + "/g" + std::to_string(group);
}

Daemon::Column& Daemon::open_column(
    const shard::ShardAssignment& a, std::uint64_t handoff_next,
    std::unique_ptr<storage::FileStableStore> store) {
  auto col = std::make_unique<Column>();
  col->group = a.group;
  ProcessId local = config_.node;
  net::Transport* net = transport_.get();
  std::size_t n = config_.n;
  std::size_t initial = config_.initial_members();
  if (a.group != 0) {
    col->port = &mux_->open(a.group, a.replicas);
    local = col->port->to_local(config_.node);
    net = col->port;
    n = initial = a.replicas.size();
  }
  if (store != nullptr) {
    col->store = std::move(store);
  } else if (!config_.wal_dir.empty()) {
    col->store =
        std::make_unique<storage::FileStableStore>(column_wal_dir(a.group));
  }
  if (!config_.trace_dir.empty()) {
    col->sink = std::make_unique<TraceSink>(
        TraceSink::path_for(config_.trace_dir, config_.node, a.group),
        TraceMeta{realtime_us(), n, initial, local, a.group});
  }
  RuntimeOptions options;
  options.vs = config_.vs_config();
  col->runtime = std::make_unique<NodeRuntime>(
      local, n, initial, *net, sim_, options, col->store.get(),
      col->sink.get(), &realtime_us);
  // CRASH (recorded by the recovering runtime) then HANDOFF tell the
  // offline auditor the new incarnation may re-deliver the donor's tail but
  // can never invent order.
  if (handoff_next != 0) col->runtime->column().note_handoff(handoff_next);
  col->runtime->bind_metrics(col->metrics);
  columns_.push_back(std::move(col));
  return *columns_.back();
}

void Daemon::apply_pool_view(const View& view) {
  router_.set_pool_view(view.set());
  // Same planning function as the simulated ShardCluster: every daemon sees
  // the same totally-ordered sequence of pool views (that is what the
  // membership service provides), computes the same diff and converges on
  // the same map without any coordinator.
  const shard::ReprovisionPlan plan =
      shard::plan_reprovision(assignments_, view.set());
  if (!plan.empty()) {
    const std::vector<shard::ShardAssignment> installed = assignments_;
    assignments_ = shard::apply_plan(assignments_, plan);
    router_.set_assignments(assignments_);
    for (const shard::GroupMigration& gm : plan.migrations) {
      for (const shard::SlotMove& mv : gm.moves) {
        ++migrations_;
        Column* col = column_for(gm.group);
        if (mv.to == config_.node) {
          // We are the joiner: bootstrap the column from the donor replica.
          const ProcessId donor =
              assignments_[gm.group - 1].replicas[gm.source_slot.value()];
          start_join(gm.group, mv.slot, donor, installed[gm.group - 1]);
        } else if (col != nullptr) {
          if (col->runtime->self() == mv.slot) {
            // The slot WE host migrated away: the pool view declared us dead
            // (we were partitioned or slow) and a survivor re-homed it. Our
            // incarnation is superseded — tear the column down.
            teardown_column(gm.group);
          } else {
            // Survivor: re-point the departed slot at its new host.
            col->port->remap(mv.slot, mv.to);
          }
        }
      }
    }
    // Persist AFTER the joins are recorded: persist_assignments masks every
    // group whose transfer is still in flight with its pre-plan row, so a
    // joiner crash before the install commits rolls the slot back.
    persist_assignments();
  }
  // Joins stranded by this view: a donor that departed mid-transfer will
  // never answer, and the slot would stay unhosted forever (we ARE its
  // recorded host, so no later plan re-homes it). Adopt the lowest-id
  // surviving replica as the new donor; the retry timer re-requests with a
  // fresh episode. With no survivor left, keep the old donor — it may
  // crash-restart with its journals intact (the `lost` column case).
  for (auto& [group, join] : joins_) {
    if (view.set().contains(join.donor)) continue;
    bool found = false;
    ProcessId best{};
    for (const ProcessId p : assignments_[group - 1].replicas) {
      if (p == config_.node || !view.set().contains(p)) continue;
      if (!found || p < best) {
        best = p;
        found = true;
      }
    }
    if (found) join.donor = best;
  }
}

void Daemon::start_join(std::uint32_t group, ProcessId slot, ProcessId donor,
                        const shard::ShardAssignment& prior) {
  const auto [it, inserted] = joins_.try_emplace(group);
  // On an overwrite (the group's join superseded by a newer plan) the
  // original pre-join row stays: it is the last state that durably
  // committed, and the superseded episode's chunks are quarantined so they
  // can never complete the new assembly.
  if (inserted) it->second.prior = prior;
  it->second.slot = slot;
  it->second.donor = donor;
  it->second.assembler.expect(xfer_episode_ + 1);
  // The retry timer of a superseded join is still armed and picks up the
  // new donor/slot; only a fresh join needs one started.
  if (inserted) request_join(group);
}

void Daemon::request_join(std::uint32_t group) {
  const auto it = joins_.find(group);
  if (it == joins_.end()) return;  // completed (or superseded) — stop retrying
  shard::TransferFrame req;
  req.kind = shard::TransferKind::kRequest;
  req.group = group;
  req.slot = it->second.slot.value();
  req.episode = ++xfer_episode_;
  mux_->send_transfer(config_.node, it->second.donor, req);
  sim_.schedule_at(sim_.now() + kJoinRetryPeriod,
                   [this, group] { request_join(group); });
}

void Daemon::handle_transfer(ProcessId from,
                             const shard::TransferFrame& frame) {
  if (frame.kind == shard::TransferKind::kRequest) {
    // Donor side: serve our own column journals. The departed slot's disk
    // is unreachable, so the joiner adopts the requested slot with OUR
    // prefix of the total order — exactly the EvHandoff contract (it may
    // re-deliver the departed replica's tail, it cannot invent order).
    Column* col = column_for(frame.group);
    if (col == nullptr || col->store == nullptr) return;
    const Bytes encoded = shard::encode_snapshot(shard::snapshot_slot(
        *col->store, col->runtime->self(),
        col->runtime->to().automaton().nextreport()));
    for (const shard::TransferFrame& chunk :
         shard::chunk_snapshot(frame.group, frame.slot, frame.episode,
                               encoded, kTransferChunk)) {
      mux_->send_transfer(config_.node, from, chunk);
    }
    return;
  }
  // Snapshot chunk: only meaningful while this group's join is in flight,
  // and only from the donor we asked, for the slot we are adopting — a
  // superseded episode's chunks (or a confused peer's) must never complete
  // the assembly under the wrong slot's keys.
  const auto it = joins_.find(frame.group);
  if (it == joins_.end()) return;
  if (frame.slot != it->second.slot.value() || from != it->second.donor) {
    return;
  }
  if (it->second.assembler.add(frame)) {
    finish_join(frame.group, it->second.assembler.take());
  }
}

void Daemon::finish_join(std::uint32_t group, const Bytes& encoded) {
  const auto it = joins_.find(group);
  const ProcessId slot = it->second.slot;
  shard::SlotSnapshot snap;
  try {
    snap = shard::decode_snapshot(encoded);
  } catch (const DecodeError&) {
    // Corrupt assembly: quarantine every episode requested so far (its
    // duplicates must not re-complete) and keep the join alive — the retry
    // timer asks the donor again with a fresh episode. Erasing the entry
    // here would strand the slot: we are already its recorded host, so no
    // later pool view would re-plan the move.
    it->second.assembler.expect(xfer_episode_ + 1);
    return;
  }
  // The shared episode (shard::run_episode): stage → commit marker →
  // install → cutover → clear marker. Only the cutover is ours: the durable
  // assignments commit (this group's row is no longer masked), and the
  // column opens over the installed journals — the recovering runtime
  // records CRASH and rebuilds the KV state, open_column the HANDOFF.
  // The column then owns the very store object the episode wrote through.
  auto owned = std::make_unique<storage::FileStableStore>(column_wal_dir(group));
  storage::FileStableStore* store = owned.get();
  shard::EpisodeHooks hooks;
  hooks.cutover = [this, group, &owned](const shard::MigrationMarker& m) {
    joins_.erase(group);
    persist_assignments();
    open_column(assignments_[group - 1], m.next, std::move(owned))
        .runtime->start();
  };
  shard::run_episode(*store, slot, config_.node, snap, hooks);
}

void Daemon::teardown_column(std::uint32_t group) {
  for (auto it = columns_.begin(); it != columns_.end(); ++it) {
    if ((*it)->group != group) continue;
    // Close + fsync the trace sink BEFORE dropping the column: the sink
    // holds one descriptor per column, and a daemon that cycles through
    // many false-suspicion teardowns must not accumulate them. The fsync
    // makes the final records durable before the slot's new host writes
    // its own incarnation of the history.
    if ((*it)->sink != nullptr) (*it)->sink->close();
    columns_.erase(it);  // destroys the runtime before its port goes away
    mux_->close(group);
    return;
  }
}

void Daemon::persist_assignments() {
  if (pool_store_ == nullptr) return;
  // Groups whose state transfer is still in flight are masked with their
  // pre-join row: until the journals and the commit marker are durable, a
  // restart must NOT believe this node hosts the slot (build_columns would
  // open the column over empty journals and silently restart the shard's
  // history). The masked row names a departed host, so the next pool view
  // re-plans the move and the transfer simply runs again.
  std::vector<shard::ShardAssignment> durable = assignments_;
  for (const auto& [group, join] : joins_) durable[group - 1] = join.prior;
  pool_store_->replace("assignments", encode_assignments(durable));
}

Daemon::Column* Daemon::column_for(std::uint32_t group) {
  for (const std::unique_ptr<Column>& c : columns_) {
    if (c->group == group) return c.get();
  }
  return nullptr;
}

Daemon::~Daemon() {
  if (ctl_fd_ >= 0) ::close(ctl_fd_);
}

std::uint64_t Daemon::elapsed_us() const {
  return (monotonic_ns() - t0_ns_) / 1000ULL;
}

int Daemon::run(const volatile std::sig_atomic_t* stop) {
  for (const std::unique_ptr<Column>& c : columns_) c->runtime->start();
  if (pool_vs_ != nullptr) pool_vs_->start();
  epoll_event events[8];
  while (!quit_ && (stop == nullptr || *stop == 0)) {
    // Fire every timer due by now; the callbacks may journal and send.
    sim_.run_until(elapsed_us());
    sync_outputs();
    transport_->flush();
    // Sleep until the next timer or the next datagram, whichever first.
    // The 50ms cap bounds the reaction time to signals.
    int timeout_ms = 50;
    if (const auto next = sim_.next_event_time(); next.has_value()) {
      const sim::Time now = sim_.now();
      const sim::Time wait = *next > now ? *next - now : 0;
      timeout_ms = static_cast<int>(
          std::min<sim::Time>((wait + 999) / 1000, 50));
    }
    const int n = ::epoll_wait(transport_->epoll_fd(), events, 8, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;  // signal: loop re-checks *stop
      return 1;
    }
    // Advance simulated time to the arrival instant before dispatching, so
    // handlers scheduling relative timers see the true now().
    sim_.run_until(elapsed_us());
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd == transport_->socket_fd()) {
        transport_->drain();
      } else if (events[i].data.fd == ctl_fd_) {
        handle_control();
      }
    }
    sync_outputs();
    transport_->flush();
  }
  sync_outputs();
  transport_->flush();
  return 0;
}

void Daemon::sync_outputs() {
  for (const std::unique_ptr<Column>& c : columns_) {
    if (c->store != nullptr) c->store->sync();
  }
  if (pool_store_ != nullptr) pool_store_->sync();
  for (const std::unique_ptr<Column>& c : columns_) {
    if (c->sink != nullptr) c->sink->sync();
  }
}

void Daemon::handle_control() {
  // Every queued command runs first; the replies leave together after one
  // sync, so a reply never precedes the records its command produced.
  struct Reply {
    sockaddr_in to{};
    socklen_t to_len = 0;
    std::string text;
  };
  std::vector<Reply> replies;
  char buf[4096];
  for (;;) {
    sockaddr_in src{};
    socklen_t src_len = sizeof(src);
    const ssize_t n =
        ::recvfrom(ctl_fd_, buf, sizeof(buf) - 1, 0,
                   reinterpret_cast<sockaddr*>(&src), &src_len);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN: queue drained
    }
    std::string command(buf, static_cast<std::size_t>(n));
    while (!command.empty() &&
           (command.back() == '\n' || command.back() == '\r' ||
            command.back() == ' ')) {
      command.pop_back();
    }
    replies.push_back(Reply{src, src_len, execute(command)});
  }
  sync_outputs();
  for (const Reply& r : replies) {
    (void)::sendto(ctl_fd_, r.text.data(), r.text.size(), 0,
                   reinterpret_cast<const sockaddr*>(&r.to), r.to_len);
  }
}

std::string Daemon::execute(const std::string& command) {
  std::istringstream is(command);
  std::string op;
  is >> op;
  if (op == "ping") {
    bool recovered = false;
    for (const std::unique_ptr<Column>& c : columns_) {
      recovered = recovered || c->runtime->recovered();
    }
    return "pong " + config_.node.to_string() +
           " pid=" + std::to_string(::getpid()) +
           " recovered=" + (recovered ? "1" : "0");
  }
  // Every keyed op routes to its column. In a sharded deployment a node
  // that does not host the key's shard answers with a redirect the client
  // (cluster.sh) can follow instead of silently writing into the wrong
  // totally-ordered stream.
  const auto route = [&](const std::string& key) -> std::pair<Column*, std::string> {
    const std::uint32_t k = mux_ ? router_.shard_of(key) : 0;
    Column* col = column_for(k);
    if (col != nullptr) return {col, ""};
    const ProcessId contact = router_.contact(k, config_.node);
    return {nullptr, "moved shard=" + std::to_string(k) +
                         " node=" + std::to_string(contact.value())};
  };
  if (op == "put" || op == "del") {
    std::string key, value;
    if (op == "put" && !(is >> key >> value)) {
      return "err usage: put <key> <value>";
    }
    if (op == "del" && !(is >> key)) return "err usage: del <key>";
    const auto [col, moved] = route(key);
    if (col == nullptr) return moved;
    const std::uint64_t uid = col->runtime->bcast_command(
        op == "put" ? "put " + key + " " + value : "del " + key);
    std::string reply = "ok uid=" + std::to_string(uid);
    if (col->group != 0) reply += " shard=" + std::to_string(col->group);
    return reply;
  }
  if (op == "get") {
    std::string key;
    if (!(is >> key)) return "err usage: get <key>";
    const auto [col, moved] = route(key);
    if (col == nullptr) return moved;
    if (!col->runtime->kv().data().contains(key)) return "(nil)";
    return col->runtime->kv().get(key);
  }
  if (op == "dump") {
    std::string out;
    for (const std::unique_ptr<Column>& c : columns_) {
      // Shard columns are tagged; the unsharded node's answers untagged.
      if (c->group != 0) out += "g" + std::to_string(c->group) + "\n";
      out += c->runtime->kv().snapshot();
    }
    return out;
  }
  if (op == "digest" || op == "view") {
    std::string out;
    for (const std::unique_ptr<Column>& c : columns_) {
      std::ostringstream os;
      if (op == "digest") {
        os << "digest=" << std::hex << c->runtime->kv().digest() << std::dec
           << " applied=" << c->runtime->kv().applied();
      } else if (const std::optional<View>& v = c->runtime->vs().view();
                 v.has_value()) {
        os << "view=" << v->to_string()
           << " primary=" << (c->runtime->dvs().in_primary() ? "1" : "0");
      } else {
        os << "no-view";
      }
      out += c->group == 0
                 ? os.str()
                 : "g" + std::to_string(c->group) + " " + os.str() + "\n";
    }
    return out;
  }
  if (op == "applied") {
    std::uint64_t total = 0;
    for (const std::unique_ptr<Column>& c : columns_) {
      total += c->runtime->kv().applied();
    }
    return std::to_string(total);
  }
  if (op == "stats") {
    obs::MetricsSnapshot out = metrics_.snapshot();
    if (mux_) {
      // Frames for groups nobody here opened mean the peers disagree about
      // the shard topology — surfaced as its own counter.
      out.counters["shard.unroutable"] = mux_->unroutable();
      out.counters["pool.migrations"] = migrations_;
      out.counters["pool.router_re_resolutions"] = router_.re_resolutions();
    }
    for (const std::unique_ptr<Column>& c : columns_) {
      shard::roll_up_shard(out, c->group, c->metrics.snapshot());
    }
    return out.to_prometheus();
  }
  if (op == "drop") {
    double p = 0.0;
    if (!(is >> p) || p < 0.0 || p > 1.0) {
      return "err usage: drop <probability in [0,1]>";
    }
    transport_->set_drop_probability(p);
    return "ok";
  }
  if (op == "fds") {
    // Open-descriptor count straight from the kernel; the dvsd system test
    // asserts column teardown does not leak trace/WAL descriptors.
    std::size_t count = 0;
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/fd", ec)) {
      (void)entry;
      ++count;
    }
    if (ec) return "err cannot read /proc/self/fd";
    return std::to_string(count);
  }
  if (op == "shardmap") {
    if (!mux_) return "err unsharded deployment";
    std::ostringstream os;
    for (const shard::ShardAssignment& a : assignments_) {
      os << "g" << a.group;
      for (const ProcessId p : a.replicas) os << " " << p.value();
      os << "\n";
    }
    os << "migrations=" << migrations_ << "\n";
    return os.str();
  }
  if (op == "quit") {
    quit_ = true;
    return "ok";
  }
  return "err unknown command '" + op + "'";
}

}  // namespace dvs::daemon
