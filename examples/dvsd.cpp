// dvsd — one node of a real multi-process DVS deployment.
//
// Daemon mode runs the full VS/DVS/TO stack as one OS process over real
// UDP sockets (daemon/daemon.h), with write-ahead persistence and on-disk
// spec-event traces per its config file:
//
//   $ dvsd --config p0.conf            # run until SIGTERM/SIGINT or `quit`
//   $ dvsd --print-config p0.conf      # parse, validate, echo, exit
//
// Client mode sends one text command to a daemon's control socket and
// prints the reply — the workload driver for scripts/cluster.sh and the
// system tests, with no dependency on netcat:
//
//   $ dvsd --ctl 127.0.0.1:9200 put color red
//   $ dvsd --ctl 127.0.0.1:9200 dump
//   $ dvsd --ctl 127.0.0.1:9200 --timeout-ms 500 --retries 10 ping
//
// Control is UDP, so the client resends on timeout (default 3 tries of
// 1000ms); a lost reply to an idempotent query is invisible, and the
// non-idempotent commands (put/del) are safe to resend because replicated
// commands are deduplicated by uid only at the TO layer — a resent `put`
// is a fresh broadcast, which the KV semantics absorb (last write wins).
// Exit code: 0 with the reply on stdout, 1 on timeout/error.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "daemon/config.h"
#include "daemon/daemon.h"

using namespace dvs;  // NOLINT

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

int run_daemon(const char* config_path) {
  const daemon::DaemonConfig config =
      daemon::DaemonConfig::parse_file(config_path);
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  daemon::Daemon d(config);
  bool recovered = false;
  std::string groups;
  for (const auto& col : d.columns()) {
    recovered = recovered || col->runtime->recovered();
    if (col->group == 0) continue;  // the unsharded node's single column
    groups += (groups.empty() ? " groups g" : ",g") +
              std::to_string(col->group);
  }
  std::fprintf(stderr, "dvsd %s: udp port %u, control port %u%s%s\n",
               config.node.to_string().c_str(),
               config.peers.at(config.node).port, d.control_port(),
               groups.c_str(), recovered ? " (recovered from WAL)" : "");
  return d.run(&g_stop);
}

int run_client(const std::string& target, const std::string& command,
               int timeout_ms, int retries) {
  const net::UdpEndpoint ep = daemon::parse_endpoint(target);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  if (inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
    std::fprintf(stderr, "dvsd --ctl: bad address %s\n", ep.host.c_str());
    return 1;
  }
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    std::perror("dvsd --ctl: socket");
    return 1;
  }
  char reply[65536];
  for (int attempt = 0; attempt < retries; ++attempt) {
    if (::sendto(fd, command.data(), command.size(), 0,
                 reinterpret_cast<const sockaddr*>(&addr),
                 sizeof(addr)) < 0) {
      std::perror("dvsd --ctl: sendto");
      ::close(fd);
      return 1;
    }
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0) {
      std::perror("dvsd --ctl: poll");
      ::close(fd);
      return 1;
    }
    if (ready == 0) continue;  // timeout: resend
    const ssize_t n = ::recv(fd, reply, sizeof(reply) - 1, 0);
    if (n < 0) continue;
    ::close(fd);
    std::fwrite(reply, 1, static_cast<std::size_t>(n), stdout);
    std::fputc('\n', stdout);
    return 0;
  }
  ::close(fd);
  std::fprintf(stderr, "dvsd --ctl: no reply from %s after %d tries\n",
               target.c_str(), retries);
  return 1;
}

void usage() {
  std::fputs(
      "usage: dvsd --config <file>\n"
      "       dvsd --print-config <file>\n"
      "       dvsd --ctl <host:port> [--timeout-ms N] [--retries N] "
      "<command...>\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const char* config_path = nullptr;
    const char* print_path = nullptr;
    std::string ctl_target;
    int timeout_ms = 1000;
    int retries = 3;
    std::vector<std::string> words;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--config") == 0 && i + 1 < argc) {
        config_path = argv[++i];
      } else if (std::strcmp(argv[i], "--print-config") == 0 && i + 1 < argc) {
        print_path = argv[++i];
      } else if (std::strcmp(argv[i], "--ctl") == 0 && i + 1 < argc) {
        ctl_target = argv[++i];
      } else if (std::strcmp(argv[i], "--timeout-ms") == 0 && i + 1 < argc) {
        timeout_ms = std::atoi(argv[++i]);
      } else if (std::strcmp(argv[i], "--retries") == 0 && i + 1 < argc) {
        retries = std::atoi(argv[++i]);
      } else {
        words.emplace_back(argv[i]);
      }
    }
    if (print_path != nullptr) {
      const daemon::DaemonConfig config =
          daemon::DaemonConfig::parse_file(print_path);
      std::fputs(config.to_string().c_str(), stdout);
      return 0;
    }
    if (!ctl_target.empty()) {
      if (words.empty()) {
        usage();
        return 1;
      }
      std::string command;
      for (const std::string& w : words) {
        if (!command.empty()) command += ' ';
        command += w;
      }
      return run_client(ctl_target, command, timeout_ms, retries);
    }
    if (config_path != nullptr && words.empty()) {
      return run_daemon(config_path);
    }
    usage();
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dvsd: %s\n", e.what());
    return 1;
  }
}
