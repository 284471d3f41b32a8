#include "cluster.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace dvs::bench {

namespace {

// Signal-safe registry of every live daemon pid across all clusters.
constexpr int kMaxPids = 16;
volatile pid_t g_pids[kMaxPids] = {};

void register_pid(pid_t pid) {
  for (volatile pid_t& slot : g_pids) {
    if (slot == 0) {
      slot = pid;
      return;
    }
  }
  throw std::runtime_error("cluster: too many daemons");
}

void unregister_pid(pid_t pid) {
  for (volatile pid_t& slot : g_pids) {
    if (slot == pid) slot = 0;
  }
}

void on_fatal_signal(int sig) {
  for (volatile pid_t& slot : g_pids) {
    const pid_t pid = slot;
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      slot = 0;
    }
  }
  ::_exit(128 + sig);
}

int udp_socket() {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("cluster: socket(): ") +
                             std::strerror(errno));
  }
  return fd;
}

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

std::uint16_t bind_ephemeral(int fd) {
  sockaddr_in addr = loopback(0);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    throw std::runtime_error(std::string("cluster: bind(): ") +
                             std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  return ntohs(addr.sin_port);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::uint64_t field_after(const std::string& text, const std::string& key) {
  const std::size_t pos = text.find(key);
  if (pos == std::string::npos) return 0;
  return std::strtoull(text.c_str() + pos + key.size(), nullptr, 10);
}

}  // namespace

std::uint64_t now_us() {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000ULL;
}

void install_signal_cleanup() {
  struct sigaction sa{};
  sa.sa_handler = on_fatal_signal;
  for (const int sig : {SIGINT, SIGTERM, SIGHUP}) sigaction(sig, &sa, nullptr);
}

ProcSample& ProcSample::operator+=(const ProcSample& o) {
  cpu_ns += o.cpu_ns;
  wchar += o.wchar;
  syscw += o.syscw;
  trace_bytes += o.trace_bytes;
  for (const auto& [k, v] : o.stats) stats[k] += v;
  return *this;
}

ProcSample& ProcSample::operator-=(const ProcSample& o) {
  cpu_ns -= o.cpu_ns;
  wchar -= o.wchar;
  syscw -= o.syscw;
  trace_bytes -= o.trace_bytes;
  for (const auto& [k, v] : o.stats) stats[k] -= v;
  return *this;
}

std::map<std::string, std::uint64_t> parse_stats(const std::string& text) {
  std::map<std::string, std::uint64_t> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::string name = line.substr(0, line.find_first_of("{ "));
    const std::size_t us = name.find('_');
    if (us != std::string::npos) name[us] = '.';
    out[name] += std::strtoull(line.c_str() + line.rfind(' ') + 1, nullptr, 10);
  }
  return out;
}

Cluster::Cluster(std::string dvsd, std::string dir, int n)
    : dvsd_(std::move(dvsd)), dir_(std::move(dir)), n_(n), pids_(n, -1) {
  std::filesystem::create_directories(dir_);
  // The driver's sockets first, so the probe below cannot hand a daemon a
  // port the driver itself holds.
  cmd_fd_ = udp_socket();
  query_fd_ = udp_socket();
  bind_ephemeral(cmd_fd_);
  bind_ephemeral(query_fd_);
  ::fcntl(cmd_fd_, F_SETFL, ::fcntl(cmd_fd_, F_GETFL) | O_NONBLOCK);
  // Hold every probe socket open together so the 2n ports are distinct.
  std::vector<int> probes;
  std::vector<std::uint16_t> ports;
  for (int i = 0; i < 2 * n_; ++i) {
    probes.push_back(udp_socket());
    ports.push_back(bind_ephemeral(probes.back()));
  }
  for (const int fd : probes) ::close(fd);
  peer_ports_.assign(ports.begin(), ports.begin() + n_);
  ctl_ports_.assign(ports.begin() + n_, ports.end());
  for (int i = 0; i < n_; ++i) write_config(i);
}

Cluster::~Cluster() {
  for (int i = 0; i < n_; ++i) kill_hard(i);
  ::close(cmd_fd_);
  ::close(query_fd_);
}

std::string Cluster::config_path(int i) const {
  return dir_ + "/p" + std::to_string(i) + ".conf";
}

std::string Cluster::trace_path(int i) const {
  return trace_dir() + "/p" + std::to_string(i) + ".trace";
}

void Cluster::write_config(int i) const {
  std::ofstream out(config_path(i));
  out << "node " << i << "\n"
      << "n " << n_ << "\n"
      << "initial " << n_ << "\n";
  for (int j = 0; j < n_; ++j) {
    out << "peer " << j << " 127.0.0.1:" << peer_ports_[j] << "\n";
  }
  out << "control 127.0.0.1:" << ctl_ports_[i] << "\n"
      << "wal_dir " << dir_ << "/p" << i << "/wal\n"
      << "trace_dir " << trace_dir() << "\n";
  if (!out.good()) throw std::runtime_error("cluster: cannot write config");
}

void Cluster::launch(int i) {
  const std::string config = config_path(i);
  const std::string log = dir_ + "/p" + std::to_string(i) + ".log";
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("cluster: fork() failed");
  if (pid == 0) {
    // Die with the driver even if it is SIGKILLed; the re-check closes the
    // race with a parent that exited before prctl ran.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(1);
    const int fd = ::open(log.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    ::execl(dvsd_.c_str(), "dvsd", "--config", config.c_str(),
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  pids_[i] = pid;
  register_pid(pid);
}

bool Cluster::reap(int i, int deadline_ms) {
  for (int waited = 0; waited <= deadline_ms; ++waited) {
    if (::waitpid(pids_[i], nullptr, WNOHANG) == pids_[i]) {
      unregister_pid(pids_[i]);
      pids_[i] = -1;
      return true;
    }
    ::usleep(1000);
  }
  return false;
}

void Cluster::kill_hard(int i) {
  if (pids_[i] <= 0) return;
  // SIGKILL cannot be caught, so a blocking wait returns promptly and the
  // failover schedule is not held up by a polling interval.
  ::kill(pids_[i], SIGKILL);
  ::waitpid(pids_[i], nullptr, 0);
  unregister_pid(pids_[i]);
  pids_[i] = -1;
}

void Cluster::stop_all() {
  for (int i = 0; i < n_; ++i) {
    if (pids_[i] > 0) (void)query(i, "quit", 200, 2);
  }
  for (int i = 0; i < n_; ++i) {
    if (pids_[i] > 0 && !reap(i, 3000)) kill_hard(i);
  }
}

bool Cluster::await_primary(int timeout_ms) {
  std::string members = "{";
  for (int j = 0; j < n_; ++j) members += (j ? ",p" : "p") + std::to_string(j);
  members += "}";
  const std::uint64_t deadline =
      now_us() + static_cast<std::uint64_t>(timeout_ms) * 1000;
  std::vector<bool> ready(n_, false);
  char buf[4096];
  // Rounds of `view` to every replica not yet in the primary, each awaited
  // for 200 us: set-up takes a few milliseconds, so a millisecond poll
  // would quantize it.
  while (now_us() < deadline) {
    for (int i = 0; i < n_; ++i) {
      if (ready[i]) continue;
      const sockaddr_in addr = loopback(ctl_ports_[i]);
      (void)::sendto(query_fd_, "view", 4, 0,
                     reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    }
    const std::uint64_t round_end = now_us() + 200;
    for (std::uint64_t now = now_us(); now < round_end; now = now_us()) {
      const timespec ts{0, static_cast<long>((round_end - now) * 1000)};
      pollfd pfd{query_fd_, POLLIN, 0};
      if (::ppoll(&pfd, 1, &ts, nullptr) <= 0) continue;
      sockaddr_in src{};
      socklen_t len = sizeof(src);
      const ssize_t n = ::recvfrom(query_fd_, buf, sizeof(buf), 0,
                                   reinterpret_cast<sockaddr*>(&src), &len);
      if (n <= 0) continue;
      const std::string reply(buf, static_cast<std::size_t>(n));
      for (int i = 0; i < n_; ++i) {
        if (ntohs(src.sin_port) == ctl_ports_[i] &&
            reply.find(members) != std::string::npos &&
            reply.find("primary=1") != std::string::npos) {
          ready[i] = true;
        }
      }
      if (std::all_of(ready.begin(), ready.end(), [](bool r) { return r; })) {
        return true;
      }
    }
  }
  return false;
}

std::string Cluster::query(int i, const std::string& command, int timeout_ms,
                           int tries) {
  const sockaddr_in addr = loopback(ctl_ports_[i]);
  char buf[65536];
  // Late replies to an earlier timed-out query must not answer this one.
  while (::recv(query_fd_, buf, sizeof(buf), MSG_DONTWAIT) > 0) {
  }
  for (int t = 0; t < tries; ++t) {
    if (::sendto(query_fd_, command.data(), command.size(), 0,
                 reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
      return "";
    }
    pollfd pfd{query_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) continue;
    sockaddr_in src{};
    socklen_t len = sizeof(src);
    const ssize_t n = ::recvfrom(query_fd_, buf, sizeof(buf), 0,
                                 reinterpret_cast<sockaddr*>(&src), &len);
    if (n > 0 && ntohs(src.sin_port) == ctl_ports_[i]) {
      return std::string(buf, static_cast<std::size_t>(n));
    }
  }
  return "";
}

void Cluster::send_command(int i, const std::string& command) {
  const sockaddr_in addr = loopback(ctl_ports_[i]);
  (void)::sendto(cmd_fd_, command.data(), command.size(), 0,
                 reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
}

bool Cluster::read_reply(int& node, std::string& text) {
  char buf[4096];
  sockaddr_in src{};
  socklen_t len = sizeof(src);
  const ssize_t n = ::recvfrom(cmd_fd_, buf, sizeof(buf), 0,
                               reinterpret_cast<sockaddr*>(&src), &len);
  if (n < 0) return false;
  node = -1;
  for (int i = 0; i < n_; ++i) {
    if (ntohs(src.sin_port) == ctl_ports_[i]) node = i;
  }
  text.assign(buf, static_cast<std::size_t>(n));
  return true;
}

ProcSample Cluster::sample(int i) {
  ProcSample s;
  const std::string proc = "/proc/" + std::to_string(pids_[i]);
  s.cpu_ns = std::strtoull(read_file(proc + "/schedstat").c_str(), nullptr, 10);
  const std::string io = read_file(proc + "/io");
  s.wchar = field_after(io, "wchar: ");
  s.syscw = field_after(io, "syscw: ");
  struct stat st{};
  if (::stat(trace_path(i).c_str(), &st) == 0) {
    s.trace_bytes = static_cast<std::uint64_t>(st.st_size);
  }
  s.stats = parse_stats(query(i, "stats"));
  return s;
}

}  // namespace dvs::bench
