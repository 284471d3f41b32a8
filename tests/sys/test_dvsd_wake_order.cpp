// Write-before-send, checked at the system-call boundary.
//
// An in-process dvsd runs with this binary's own write() and sendto() in
// front of libc's (both forward to the kernel through syscall()), and its
// column journal's barrier hook marks every record the protocol issues.
// The property: no datagram and no control reply leaves the daemon while a
// record issued before it has not yet been written to the journal file.
//
// Two daemons run in this process. The workload is one wake at p0 that
// reads 40 queued `put` commands: each one journals its TO content record
// and sends a frame to p1, so 40 frames to one destination cross the
// 16-frame batch cap mid-wake, and 40 replies wait on the control socket.
// p1 journals in datagram and timer wakes that no control command touches.
// A cap that transmitted from send(), a reply sent before the wake's sync,
// or a flush without the sync in front of it shows up as a violation.
//
// Also here, because it needs the daemon: a WAL directory in the older
// per-key layout is refused at startup with a message naming it.
//
// Set DVS_NO_NET=1 to skip (no loopback sockets available).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "daemon/daemon.h"

namespace {

/// What one daemon has issued, written and sent.
struct Watched {
  std::string journal;          // its column journal file
  bool unwritten = false;       // a record was issued since the last write
  std::size_t journal_writes = 0;
  std::size_t sends = 0;
};

struct Recorder {
  std::mutex mu;
  std::vector<Watched> daemons;
  std::map<std::uint16_t, std::size_t> port_owner;  // UDP + control ports
  std::vector<std::string> violations;
};

Recorder& recorder() {
  static Recorder r;
  return r;
}

bool is_journal(int fd, const std::string& journal) {
  char buf[4096];
  const std::string link = "/proc/self/fd/" + std::to_string(fd);
  const ssize_t n = ::readlink(link.c_str(), buf, sizeof(buf));
  return n > 0 && std::string(buf, static_cast<std::size_t>(n)) == journal;
}

std::uint16_t local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0 ||
      addr.sin_family != AF_INET) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

}  // namespace

extern "C" ssize_t write(int fd, const void* buf, size_t n) {
  Recorder& r = recorder();
  {
    std::lock_guard<std::mutex> lock(r.mu);
    for (Watched& w : r.daemons) {
      if (is_journal(fd, w.journal)) {
        w.unwritten = false;
        ++w.journal_writes;
      }
    }
  }
  return ::syscall(SYS_write, fd, buf, n);
}

extern "C" ssize_t sendto(int fd, const void* buf, size_t n, int flags,
                          const sockaddr* addr, socklen_t addr_len) {
  Recorder& r = recorder();
  {
    std::lock_guard<std::mutex> lock(r.mu);
    const auto owner = r.port_owner.find(local_port(fd));
    if (owner != r.port_owner.end()) {
      Watched& w = r.daemons[owner->second];
      ++w.sends;
      if (w.unwritten) {
        r.violations.push_back("p" + std::to_string(owner->second) +
                               " send #" + std::to_string(w.sends) + " (" +
                               std::to_string(n) +
                               " B) left before the journal write");
      }
    }
  }
  return ::syscall(SYS_sendto, fd, buf, n, flags, addr, addr_len);
}

namespace dvs {
namespace {

namespace fs = std::filesystem;

bool no_net() {
  const char* env = std::getenv("DVS_NO_NET");
  return env != nullptr && std::string(env) == "1";
}

/// A loopback port that was free a moment ago.
std::uint16_t free_port() {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  const std::uint16_t port = local_port(fd);
  ::close(fd);
  return port;
}

class ControlClient {
 public:
  explicit ControlClient(std::uint16_t port) : fd_(::socket(AF_INET, SOCK_DGRAM, 0)) {
    to_.sin_family = AF_INET;
    to_.sin_port = htons(port);
    to_.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    timeval tv{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~ControlClient() { ::close(fd_); }

  void send(const std::string& command) {
    (void)::sendto(fd_, command.data(), command.size(), 0,
                   reinterpret_cast<const sockaddr*>(&to_), sizeof(to_));
  }
  std::string receive() {
    char buf[65536];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    return n < 0 ? std::string() : std::string(buf, static_cast<std::size_t>(n));
  }
  std::string ask(const std::string& command) {
    send(command);
    return receive();
  }

 private:
  int fd_;
  sockaddr_in to_{};
};

/// Node `self` of an n-node loopback cluster rooted at `dir`.
daemon::DaemonConfig node_config(
    const std::string& dir, std::size_t self,
    const std::map<ProcessId, net::UdpEndpoint>& peers) {
  daemon::DaemonConfig config;
  config.node = ProcessId{static_cast<std::uint32_t>(self)};
  config.n = peers.size();
  config.peers = peers;
  config.control = {"127.0.0.1", free_port()};
  config.wal_dir = dir + "/wal" + std::to_string(self);
  config.trace_dir = dir + "/traces";
  return config;
}

TEST(DvsdWakeOrderTest, NoDatagramOrReplyPrecedesTheJournalWrite) {
  if (no_net()) GTEST_SKIP() << "DVS_NO_NET=1: skipping loopback daemons";
  const std::string dir =
      (fs::path(::testing::TempDir()) / "dvsd_wake_order").string();
  fs::remove_all(dir);
  constexpr std::size_t kNodes = 2;
  std::map<ProcessId, net::UdpEndpoint> peers;
  for (std::size_t i = 0; i < kNodes; ++i) {
    peers[ProcessId{static_cast<std::uint32_t>(i)}] = {"127.0.0.1",
                                                       free_port()};
  }
  // Two daemons in this process, each on its own loop thread.
  std::vector<std::unique_ptr<daemon::Daemon>> daemons;
  Recorder& r = recorder();
  for (std::size_t i = 0; i < kNodes; ++i) {
    const daemon::DaemonConfig config = node_config(dir, i, peers);
    daemons.push_back(std::make_unique<daemon::Daemon>(config));
    std::lock_guard<std::mutex> lock(r.mu);
    Watched w;
    w.journal = fs::canonical(config.wal_dir).string() + "/" +
                storage::FileStableStore::kJournalFile;
    // Construction already journaled the layers' initial snapshots.
    w.unwritten = true;
    r.daemons.push_back(w);
    r.port_owner[config.peers.at(config.node).port] = i;
    r.port_owner[daemons.back()->control_port()] = i;
    daemons.back()->columns().front()->store->set_barrier_hook(
        [&r, i](const std::string&) {
          std::lock_guard<std::mutex> hook_lock(r.mu);
          r.daemons[i].unwritten = true;
        });
  }

  // Queue the whole burst at p0 before the loops start, so one wake reads
  // it all.
  ControlClient client(daemons[0]->control_port());
  constexpr int kPuts = 40;
  for (int i = 0; i < kPuts; ++i) {
    client.send("put k" + std::to_string(i) + " v");
  }
  volatile std::sig_atomic_t stop = 0;
  std::vector<std::thread> loops;
  for (auto& d : daemons) {
    loops.emplace_back([&d, &stop] { (void)d->run(&stop); });
  }
  int ok = 0;
  for (int i = 0; i < kPuts; ++i) {
    if (client.receive().rfind("ok uid=", 0) == 0) ++ok;
  }
  EXPECT_EQ(ok, kPuts);
  // p1 only ever hears from p0: every record it journals is issued in a
  // datagram or timer wake, with no control reply to force a sync.
  bool applied = false;
  ControlClient p1(daemons[1]->control_port());
  for (int tries = 0; tries < 500 && !applied; ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    applied = p1.ask("applied") == std::to_string(kPuts);
  }
  EXPECT_TRUE(applied) << "the burst was never applied at p1";
  const std::string stats = client.ask("stats");
  stop = 1;
  for (std::thread& t : loops) t.join();

  // The burst crossed the batch cap: at least one batch closed mid-wake.
  const std::string cap = "\nnet_batch_cap_flushes ";
  const std::size_t at = stats.find(cap);
  ASSERT_NE(at, std::string::npos) << stats;
  EXPECT_GE(std::stoull(stats.substr(at + cap.size())), 1u) << stats;

  std::lock_guard<std::mutex> lock(r.mu);
  for (const Watched& w : r.daemons) {
    EXPECT_GT(w.journal_writes, 0u) << w.journal;
    EXPECT_GT(w.sends, static_cast<std::size_t>(kPuts) / 16) << w.journal;
  }
  EXPECT_TRUE(r.violations.empty())
      << r.violations.size() << " sends preceded the journal write; first: "
      << r.violations.front();
  r.daemons.clear();
  r.port_owner.clear();
  fs::remove_all(dir);
}

TEST(DvsdWakeOrderTest, OlderPerKeyWalLayoutIsRefusedNamingTheDirectory) {
  if (no_net()) GTEST_SKIP() << "DVS_NO_NET=1: skipping loopback daemon";
  const std::string dir =
      (fs::path(::testing::TempDir()) / "dvsd_old_layout").string();
  fs::remove_all(dir);
  const daemon::DaemonConfig config = node_config(
      dir, 0, {{ProcessId{0}, net::UdpEndpoint{"127.0.0.1", free_port()}}});
  fs::create_directories(config.wal_dir);
  std::ofstream(config.wal_dir + "/p0_vs_.wal") << "old";
  try {
    daemon::Daemon d(config);
    ADD_FAILURE() << "dvsd started over a per-key WAL directory";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(config.wal_dir), std::string::npos)
        << e.what();
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dvs
