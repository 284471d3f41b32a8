// A benchmark cluster: n forked dvsd processes on loopback, configured the
// way unsharded scripts/cluster.sh deploys them (WAL and trace_dir on,
// default timers, no injected delay or loss), plus the driver's two control
// sockets and the /proc counters read at window edges.
//
// Process hygiene: ports are probed after the driver's own sockets are
// bound, every child asks the kernel to SIGKILL it when the driver dies
// (PR_SET_PDEATHSIG), and every live pid sits in a signal-safe registry
// that the driver's SIGINT/SIGTERM/SIGHUP handler kills and reaps before
// exiting — no failed run leaves a daemon holding a port.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dvs::bench {

/// CLOCK_REALTIME microseconds: the clock dvsd stamps its trace records
/// with, so driver times and trace times share one domain.
[[nodiscard]] std::uint64_t now_us();

/// Installs the handler that SIGKILLs and reaps every registered daemon and
/// exits with 128 + signal.
void install_signal_cleanup();

/// One daemon's counters at a window edge.
struct ProcSample {
  std::uint64_t cpu_ns = 0;       // /proc/<pid>/schedstat: utime + stime
  std::uint64_t wchar = 0;        // /proc/<pid>/io: bytes passed to write()
  std::uint64_t syscw = 0;        // /proc/<pid>/io: write syscalls
  std::uint64_t trace_bytes = 0;  // size of the daemon's trace file
  /// `stats` verb counters, summed over labels ("net.sent", "vs.views_...").
  std::map<std::string, std::uint64_t> stats;

  ProcSample& operator+=(const ProcSample& o);
  ProcSample& operator-=(const ProcSample& o);
};

/// Parses the `stats` verb's Prometheus text into name -> value, with the
/// exporter's '_' separators mapped back to the registry's first '.'
/// ("net_sent" -> "net.sent") and label variants summed.
[[nodiscard]] std::map<std::string, std::uint64_t> parse_stats(
    const std::string& text);

class Cluster {
 public:
  /// Probes 2n free loopback ports and writes n configs under `dir`.
  Cluster(std::string dvsd, std::string dir, int n);
  /// SIGKILLs and reaps every daemon still running.
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] std::string trace_dir() const { return dir_ + "/traces"; }
  [[nodiscard]] std::string trace_path(int i) const;
  [[nodiscard]] bool alive(int i) const { return pids_[i] > 0; }

  /// Forks daemon i (a relaunch recovers from its WAL).
  void launch(int i);
  /// SIGKILL (a genuine crash: no flush, torn trace tail) and reap.
  void kill_hard(int i);
  /// `quit` to every live daemon, then reap (SIGKILL after a deadline).
  void stop_all();

  /// Waits until every daemon reports the full universe as a primary view;
  /// false on timeout.
  [[nodiscard]] bool await_primary(int timeout_ms);

  /// Synchronous query on the query socket; "" after `tries` timeouts.
  [[nodiscard]] std::string query(int i, const std::string& command,
                                  int timeout_ms = 200, int tries = 5);

  /// Asynchronous command on the command socket (replies via read_reply).
  void send_command(int i, const std::string& command);
  /// The command socket, for the driver's poll().
  [[nodiscard]] int command_fd() const { return cmd_fd_; }
  /// Reads one queued reply on the command socket: false when none is
  /// queued. `node` is the replying daemon, -1 for a stray datagram.
  bool read_reply(int& node, std::string& text);

  /// Counters of live daemon i (stats verb, /proc and trace size).
  [[nodiscard]] ProcSample sample(int i);

 private:
  [[nodiscard]] std::string config_path(int i) const;
  void write_config(int i) const;
  bool reap(int i, int deadline_ms);

  std::string dvsd_;
  std::string dir_;
  int n_;
  int cmd_fd_ = -1;
  int query_fd_ = -1;
  std::vector<std::uint16_t> peer_ports_;
  std::vector<std::uint16_t> ctl_ports_;
  std::vector<pid_t> pids_;
};

}  // namespace dvs::bench
