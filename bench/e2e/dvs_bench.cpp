// dvs_bench — commit latency, capacity and failover of real dvsd processes
// over loopback UDP, split by VS/DVS/TO stage.
//
// Each run forks n=3 dvsd daemons configured the way unsharded
// scripts/cluster.sh deploys them (WAL and traces on, 20 ms heartbeat /
// 150 ms suspect / 400 ms propose, no injected delay or loss, so latency
// is timer and processor time) and drives them from this one thread over
// their UDP control sockets. dvsd answers `put` before ordering it, so
// commits are learnt by tailing the trace files dvsd writes in every
// deployment; VS and DVS records are decoded only after the daemons exit.
// Nothing is added inside the daemons. README.md has the workloads, the
// metric catalogue and the recorded findings.
//
//   dvs_bench [--workload W] [--seed N] [--seconds S] [--repeat N]
//             [--json FILE] [--spans FILE] [--keep] [--dvsd PATH]
//   dvs_bench --smoke              every workload cut to 2 s, same checks
//   dvs_bench --workload W --seed N --seconds S --trace 0|1
//       one run; the last stdout line is {"correct", "attempted",
//       "failed", "metrics"} with BENCHMARK.json's end-to-end (0) or
//       per-layer (1) metrics
//   dvs_bench --compare A.json B.json   (from the repository root, which
//       holds the bounds in BENCHMARK.json)
//
// Exit code: 0 every check passed, 1 a check failed (named on stderr),
// 2 harness error, 77 DVS_NO_NET=1 (no loopback sockets).
#include <poll.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <numbers>
#include <sstream>
#include <stdexcept>

#include "cluster.h"
#include "common/rng.h"
#include "daemon/audit.h"
#include "report.h"
#include "traces.h"

namespace dvs::bench {
namespace {

constexpr int kNodes = 3;
/// Cluster bring-ups per run; setup_s is their median.
constexpr int kSetups = 15;
constexpr double kSteadyRate = 375;    // cmds/s
constexpr double kFailoverRate = 100;  // cmds/s
constexpr std::size_t kWindow = 32;    // window's outstanding commands
/// A command not committed this long after the load stops has failed.
constexpr std::uint64_t kDrainUs = 5'000'000;
constexpr std::uint64_t kLeadUs = 50'000;
constexpr std::uint32_t kKeys = 1000;
/// dvsd's default heartbeat period, the stability floor's clock.
constexpr double kHeartbeatUs = 20'000;
/// The generator should send within this of each due time (p99); beyond
/// it the run partly measured the driver.
constexpr double kLateLimitUs = 1000;

struct Workload {
  const char* name;
  double seconds;  // measured duration when --seconds is not given
};

// trickle: lone commands (gaps above the worst-case commit) — the fixed
// path and the heartbeat-bound stability floor. steady: pipelined Poisson
// load — per-command CPU, WAL and trace work and history growth. window:
// closed loop at 32 outstanding — capacity. failover: SIGKILL and WAL
// restart of p2 — membership, state exchange and recovery.
constexpr Workload kWorkloads[] = {
    {"trickle", 33}, {"steady", 20}, {"window", 10}, {"failover", 25}};

/// The metrics BENCHMARK.json lists, printed by --trace 0 and --trace 1.
/// The end-to-end ones carry regression bounds, so only metrics whose
/// run-to-run spread stays small on every workload are among them; p99,
/// CPU per command and the longest stall are reported per layer instead
/// (README.md: "Metric catalogue").
constexpr const char* kEndToEnd[] = {"commit_p50_ms", "commit_p95_ms",
                                     "throughput_cmds_s", "setup_s"};
constexpr const char* kPerLayer[] = {
    "commit_p99_ms",           "cpu_us_per_cmd",
    "stall_ms",                "client.late_us.p50",
    "client.late_us.p99",      "daemon.ack_us.p50",
    "daemon.ack_us.p99",       "daemon.submit_us.p50",
    "daemon.submit_us.p99",    "vsys.order_us.p50",
    "vsys.order_us.p99",       "vsys.safe_us.p50",
    "vsys.safe_us.p99",        "dvsys.handoff_us.p50",
    "dvsys.handoff_us.p99",    "tosys.confirm_us.p50",
    "tosys.confirm_us.p99",    "tosys.apply_skew_us.p50",
    "tosys.apply_skew_us.p99", "daemon.cpu_max_pct",
    "daemon.trace_bytes_per_cmd", "net.msgs_per_cmd",
    "net.datagrams_per_cmd",   "net.wire_bytes_per_cmd",
    "net.batch_fill",          "vsys.retransmits_per_cmd",
    "storage.write_bytes_per_cmd", "storage.write_calls_per_cmd",
    "vsys.views_installed",    "tosys.views_established",
    "net.dropped_oversize"};

struct Options {
  std::string workload;  // "" = all
  std::uint64_t seed = 1;
  double seconds = 0;  // 0 = each workload's default
  int repeat = 1;
  int trace = -1;  // -1 = no contract line
  bool smoke = false;
  bool keep = false;
  std::string json;
  std::string spans;
  std::string dvsd = DVSD_BIN_PATH;
  std::vector<std::string> compare;
};

struct Command {
  std::uint64_t due = 0;     // realtime us; closed loop: when issued
  std::uint64_t sent = 0;    // put handed to the socket
  std::uint64_t commit = 0;  // last BRCV among the required replicas
  int node = 0;              // origin
  std::uint32_t key = 0;
  std::array<std::uint64_t, kNodes> brcv{};  // first BRCV per replica
};

/// name -> (unit, value)
using Metrics = std::map<std::string, std::pair<std::string, double>>;

/// Everything one run produces.
struct Run {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  std::unique_ptr<Cluster> cluster;
  std::vector<double> setup_s;
  std::vector<Command> cmds;
  /// Replicas a command must reach to commit: all but the one the workload
  /// kills.
  std::vector<int> required;
  std::map<std::pair<int, std::uint64_t>, std::uint64_t> acks;  // (node, uid)
  std::uint64_t t_start = 0;
  std::uint64_t load_end = 0;
  std::uint64_t end_us = 0;  // window end: load plus drain
  std::uint64_t kill_us = 0;
  std::uint64_t restart_us = 0;
  std::uint64_t recovered_us = 0;  // restarted p2 first answers recovered=1
  std::array<ProcSample, kNodes> begin{};  // counters at the window start
  std::array<ProcSample, kNodes> used{};   // counter deltas over the window
  std::array<std::string, kNodes> digests{};

  Metrics metrics;
  std::vector<std::string> failures;
  std::size_t failed = 0;
  std::vector<Span> spans;
};

std::uint64_t file_size(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size)
                                        : 0;
}

std::string make_run_dir() {
  const char* tmp = std::getenv("TMPDIR");
  std::string tmpl = std::string(tmp != nullptr && *tmp ? tmp : "/tmp") +
                     "/dvs_bench_XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) {
    throw std::runtime_error("cannot create a run directory under " + tmpl);
  }
  return tmpl;
}

/// Forks kSetups clusters in turn, timing each from the first fork until
/// every replica reports the full primary view; the last one stays up.
void bring_up(Run& run, const Options& opt, const std::string& dir) {
  for (int s = 0; s < kSetups; ++s) {
    auto c = std::make_unique<Cluster>(opt.dvsd, dir + "/c" + std::to_string(s),
                                       kNodes);
    const std::uint64_t t0 = now_us();
    for (int i = 0; i < kNodes; ++i) c->launch(i);
    if (!c->await_primary(10'000)) {
      throw std::runtime_error("no primary view within 10 s (logs in " +
                               c->dir() + ")");
    }
    run.setup_s.push_back(static_cast<double>(now_us() - t0) / 1e6);
    if (s + 1 < kSetups) {
      c->stop_all();
      std::filesystem::remove_all(c->dir());
    } else {
      run.cluster = std::move(c);
    }
  }
}

/// Open loops get their whole schedule up front; the closed loop gets its
/// first kWindow commands and issues the rest as commits arrive.
void schedule(Run& run, Rng& rng) {
  const auto span_us = static_cast<std::uint64_t>(run.seconds * 1e6);
  const auto add = [&](std::uint64_t due, int node) {
    Command c;
    c.due = due;
    c.node = node;
    c.key = static_cast<std::uint32_t>(rng.below(kKeys));
    run.cmds.push_back(c);
  };
  if (run.workload == "trickle") {
    // Gaps of one heartbeat period times the golden ratio (32.4 ms) from a
    // seeded offset: each command is alone (the worst-case commit is 21 ms),
    // and the arrival phase walks the heartbeat period as evenly as any
    // sequence can instead of locking to it, so the median converges like a
    // stratified sample rather than a random one.
    const double gap = kHeartbeatUs * std::numbers::phi;
    for (double t = rng.uniform() * gap; t < static_cast<double>(span_us);
         t += gap) {
      add(run.t_start + static_cast<std::uint64_t>(t),
          static_cast<int>(run.cmds.size() % kNodes));
    }
  } else if (run.workload == "window") {
    for (std::size_t i = 0; i < kWindow; ++i) {
      add(run.t_start, static_cast<int>(rng.below(kNodes)));
    }
  } else {
    // Poisson arrivals conditioned on their count: exponential gaps
    // rescaled to fill the window, so every run offers rate x seconds.
    const bool failover = run.workload == "failover";
    const double rate = failover ? kFailoverRate : kSteadyRate;
    const auto n = static_cast<std::size_t>(rate * run.seconds);
    std::vector<double> at(n + 1);
    double sum = 0;
    for (double& a : at) a = sum += rng.exponential(1.0);
    for (std::size_t i = 0; i < n; ++i) {
      // failover sends only to the replicas it never kills.
      add(run.t_start + static_cast<std::uint64_t>(
                            at[i] / sum * static_cast<double>(span_us)),
          static_cast<int>(rng.below(failover ? kNodes - 1 : kNodes)));
    }
  }
}

/// The measured window: sends on schedule, collects acks, tails the traces
/// for commits, injects the failover faults, and drains.
void drive(Run& run, Rng& rng) {
  Cluster& c = *run.cluster;
  const bool window = run.workload == "window";
  const bool failover = run.workload == "failover";
  const auto span_us = static_cast<std::uint64_t>(run.seconds * 1e6);
  const std::uint64_t kill_at = run.t_start + span_us / 5;
  const std::uint64_t restart_at = run.t_start + 3 * span_us / 5;

  std::size_t committed = 0;
  std::size_t reissue = 0;  // window: callers whose command just committed
  std::vector<std::unique_ptr<TraceTail>> tails;
  std::vector<std::function<void(const storage::WalRecord&)>> on_record;
  for (int i = 0; i < kNodes; ++i) {
    tails.push_back(std::make_unique<TraceTail>(c.trace_path(i)));
    on_record.emplace_back([&, i](const storage::WalRecord& rec) {
      std::int64_t index = 0;
      std::uint64_t ts = 0;
      if (!brcv_of(rec, index, ts) ||
          static_cast<std::size_t>(index) >= run.cmds.size()) {
        return;
      }
      Command& cmd = run.cmds[static_cast<std::size_t>(index)];
      if (cmd.brcv[i] == 0) cmd.brcv[i] = ts;
      if (cmd.commit != 0) return;
      std::uint64_t last = 0;
      for (const int r : run.required) {
        if (cmd.brcv[r] == 0) return;
        last = std::max(last, cmd.brcv[r]);
      }
      cmd.commit = last;
      ++committed;
      ++reissue;
    });
  }
  for (int i = 0; i < kNodes; ++i) run.begin[i] = c.sample(i);

  std::size_t next = 0;
  std::uint64_t last_ping = 0;
  for (;;) {
    std::uint64_t now = now_us();
    if (failover && run.kill_us == 0 && now >= kill_at) {
      ProcSample s = c.sample(2);
      s -= run.begin[2];
      run.used[2] += s;
      run.kill_us = now_us();
      c.kill_hard(2);
    } else if (failover && run.kill_us != 0 && run.restart_us == 0 &&
               now >= restart_at) {
      // The new incarnation's counters start at zero; its trace appends.
      run.begin[2] = ProcSample{};
      run.begin[2].trace_bytes = file_size(c.trace_path(2));
      run.restart_us = now_us();
      c.launch(2);
    }
    if (run.restart_us != 0 && run.recovered_us == 0 &&
        now >= last_ping + 1000) {
      c.send_command(2, "ping");
      last_ping = now;
    }
    while (next < run.cmds.size() && run.cmds[next].due <= now) {
      Command& cmd = run.cmds[next];
      c.send_command(cmd.node, "put k" + std::to_string(cmd.key) + " v" +
                                   std::to_string(next));
      cmd.sent = now_us();
      ++next;
    }
    int node = -1;
    std::string reply;
    while (c.read_reply(node, reply)) {
      const std::uint64_t at = now_us();
      if (reply.rfind("ok uid=", 0) == 0) {
        run.acks[{node, std::strtoull(reply.c_str() + 7, nullptr, 10)}] = at;
      } else if (node == 2 && run.restart_us != 0 &&
                 reply.find("recovered=1") != std::string::npos) {
        run.recovered_us = at;
      }
    }
    for (int i = 0; i < kNodes; ++i) tails[i]->poll(on_record[i]);
    now = now_us();
    if (window) {
      for (; reissue > 0 && now < run.load_end; --reissue) {
        Command cmd;
        cmd.due = now;
        cmd.node = static_cast<int>(rng.below(kNodes));
        cmd.key = static_cast<std::uint32_t>(rng.below(kKeys));
        run.cmds.push_back(cmd);
      }
    }
    reissue = 0;
    const bool issued_all = window ? now >= run.load_end
                                   : next == run.cmds.size();
    if (issued_all && (committed == run.cmds.size() ||
                       now >= run.load_end + kDrainUs)) {
      break;
    }
    std::uint64_t wait = 250;
    if (next < run.cmds.size()) {
      const std::uint64_t due = run.cmds[next].due;
      wait = due > now ? std::min(wait, due - now) : 0;
    }
    const timespec ts{0, static_cast<long>(wait * 1000)};
    pollfd pfd{c.command_fd(), POLLIN, 0};
    ::ppoll(&pfd, 1, &ts, nullptr);
  }
  run.end_us = now_us();
  for (int i = 0; i < kNodes; ++i) {
    if (!c.alive(i)) continue;
    ProcSample s = c.sample(i);
    s -= run.begin[i];
    run.used[i] += s;
    run.digests[i] = c.query(i, "digest");
  }
  c.stop_all();
}

std::uint64_t applied_of(const std::string& digest) {
  const std::size_t pos = digest.find("applied=");
  return pos == std::string::npos ? 0 : std::strtoull(digest.c_str() + pos + 8,
                                                      nullptr, 10);
}

/// First timestamp in `ts` (ascending) after `t`; 0 if none.
std::uint64_t first_after(const std::vector<std::uint64_t>& ts,
                          std::uint64_t t) {
  const auto it = std::upper_bound(ts.begin(), ts.end(), t);
  return it == ts.end() ? 0 : *it;
}

/// Longest interval in [from, to] containing none of `events`.
double longest_gap_ms(std::vector<std::uint64_t> events, std::uint64_t from,
                      std::uint64_t to) {
  events.erase(std::remove_if(events.begin(), events.end(),
                              [&](std::uint64_t t) {
                                return t < from || t > to;
                              }),
               events.end());
  events.push_back(from);
  events.push_back(to);
  std::sort(events.begin(), events.end());
  std::uint64_t gap = 0;
  for (std::size_t i = 1; i < events.size(); ++i) {
    gap = std::max(gap, events[i] - events[i - 1]);
  }
  return static_cast<double>(gap) / 1000.0;
}

/// The correctness gate: one total order, equal replica state, and (where
/// it is affordable) the offline audit through the paper's acceptors.
void check(Run& run, const std::vector<NodeTrace>& nodes) {
  if (const std::string e = check_order(nodes); !e.empty()) {
    run.failures.push_back("order: " + e);
  }
  // Replicas that applied equally many commands must hold equal state. One
  // that applied fewer is behind (a stalled group, a rejoining replica);
  // the order check above already holds it to a prefix of the same order.
  for (int i = 0; i < kNodes; ++i) {
    const std::string& a = run.digests[i];
    const bool kept = std::find(run.required.begin(), run.required.end(), i) !=
                      run.required.end();
    if (kept && a.rfind("digest=", 0) != 0) {
      run.failures.push_back("digest: p" + std::to_string(i) + " answered '" +
                             a + "'");
    }
    for (int j = i + 1; j < kNodes; ++j) {
      const std::string& b = run.digests[j];
      if (!a.empty() && !b.empty() && applied_of(a) == applied_of(b) && a != b) {
        run.failures.push_back("digest: p" + std::to_string(i) + " '" + a +
                               "' vs p" + std::to_string(j) + " '" + b + "'");
      }
    }
  }
  // The audit's trace loader (storage::read_wal) copies the rest of a file
  // for every record, so it is quadratic in history: seconds at a few
  // thousand commands, about a minute at 10k. The two heavy
  // workloads skip it.
  if (run.workload == "trickle" || run.workload == "failover") {
    const daemon::AuditReport report =
        daemon::audit_dir(run.cluster->trace_dir());
    if (!report.ok) run.failures.push_back("audit: " + report.error);
  }
}

void put(Metrics& m, const std::string& name, const std::string& unit,
         double value) {
  m[name] = {unit, value};
}

void put_p50_p99(Metrics& m, const std::string& name,
                 const std::vector<double>& values) {
  put(m, name + ".p50", "us", percentile(values, 0.50));
  put(m, name + ".p99", "us", percentile(values, 0.99));
}

/// Decodes the traces and turns the run into metrics and check results.
void analyse(Run& run) {
  std::vector<NodeTrace> nodes;
  for (int i = 0; i < kNodes; ++i) {
    nodes.push_back(decode_node(run.cluster->trace_path(i), run.cmds.size()));
  }
  check(run, nodes);

  std::vector<double> latency_ms, late, ack, skew;
  std::array<std::vector<double>, 5> child;
  std::uint64_t last_commit = 0;
  std::size_t committed = 0, in_window = 0, incomplete = 0;
  bool tiled = true;
  for (std::size_t i = 0; i < run.cmds.size(); ++i) {
    const Command& cmd = run.cmds[i];
    const auto& bcast = nodes[cmd.node].bcasts[i];
    const auto it = run.acks.find({cmd.node, bcast[0]});
    const bool acked = bcast[0] != 0 && it != run.acks.end();
    if (cmd.sent != 0) late.push_back(static_cast<double>(cmd.sent - cmd.due));
    if (acked) ack.push_back(static_cast<double>(it->second - cmd.sent));
    if (!acked || cmd.commit == 0) ++run.failed;
    if (cmd.commit == 0) continue;
    ++committed;
    in_window += cmd.commit <= run.load_end;
    last_commit = std::max(last_commit, cmd.commit);
    const auto lat = static_cast<std::int64_t>(cmd.commit) -
                     static_cast<std::int64_t>(cmd.due);
    const Span span = make_span(nodes, static_cast<std::int64_t>(i), cmd.due,
                                cmd.node, run.required);
    std::int64_t sum = 0;
    for (std::size_t k = 0; k < 5; ++k) {
      sum += span.child[k];
      child[k].push_back(static_cast<double>(span.child[k]));
    }
    tiled = tiled && span.end_us == cmd.commit && sum == lat && lat >= 0;
    incomplete += !span.complete;
    latency_ms.push_back(static_cast<double>(lat) / 1000.0);
    std::uint64_t lo = cmd.commit;
    for (const int r : run.required) lo = std::min(lo, cmd.brcv[r]);
    skew.push_back(static_cast<double>(cmd.commit - lo));
    run.spans.push_back(span);
  }
  if (!tiled) {
    run.failures.push_back("spans: a command's stages do not sum to its "
                           "commit latency");
  }
  // Latency counts from the due time, so a late generator inflates it
  // rather than hiding it: a warning, not a failed check.
  if (percentile(late, 0.99) >= kLateLimitUs) {
    std::fprintf(stderr,
                 "dvs_bench: %s seed %llu: warning: generator ran late, "
                 "client.late_us.p99 = %.0f us\n",
                 run.workload.c_str(),
                 static_cast<unsigned long long>(run.seed),
                 percentile(late, 0.99));
  }

  ProcSample total;
  double cpu_max_ns = 0;
  for (const ProcSample& s : run.used) {
    total += s;
    cpu_max_ns = std::max(cpu_max_ns, static_cast<double>(s.cpu_ns));
  }
  const double per = static_cast<double>(std::max<std::size_t>(committed, 1));
  const double window_s = static_cast<double>(run.end_us - run.t_start) / 1e6;
  const auto stat = [&](const char* key) {
    return static_cast<double>(total.stats[key]);
  };
  Metrics& m = run.metrics;
  put(m, "commit_p50_ms", "ms", percentile(latency_ms, 0.50));
  put(m, "commit_p95_ms", "ms", percentile(latency_ms, 0.95));
  put(m, "commit_p99_ms", "ms", percentile(latency_ms, 0.99));
  const double first_due = static_cast<double>(run.cmds.front().due);
  put(m, "throughput_cmds_s", "1/s",
      run.workload == "window"
          ? static_cast<double>(in_window) / run.seconds
          : static_cast<double>(committed) /
                std::max(1e-6, (static_cast<double>(last_commit) - first_due) /
                                   1e6));
  put(m, "failed_pct", "%",
      100.0 * static_cast<double>(run.failed) /
          static_cast<double>(run.cmds.size()));
  put(m, "cpu_us_per_cmd", "us", static_cast<double>(total.cpu_ns) / 1e3 / per);
  put(m, "setup_s", "s", quartiles(run.setup_s)[1]);

  put_p50_p99(m, "client.late_us", late);
  put_p50_p99(m, "daemon.ack_us", ack);
  put_p50_p99(m, "daemon.submit_us", child[0]);
  put_p50_p99(m, "vsys.order_us", child[1]);
  put_p50_p99(m, "vsys.safe_us", child[2]);
  put_p50_p99(m, "dvsys.handoff_us", child[3]);
  put_p50_p99(m, "tosys.confirm_us", child[4]);
  put_p50_p99(m, "tosys.apply_skew_us", skew);
  put(m, "client.incomplete_spans", "count", static_cast<double>(incomplete));
  std::vector<std::uint64_t> commits;
  for (const int r : run.required) {
    commits.insert(commits.end(), nodes[r].brcvs.begin(), nodes[r].brcvs.end());
  }
  put(m, "stall_ms", "ms",
      longest_gap_ms(commits, run.cmds.front().due, run.load_end));
  put(m, "daemon.cpu_max_pct", "%", cpu_max_ns / 1e7 / window_s);
  put(m, "daemon.trace_bytes_per_cmd", "B",
      static_cast<double>(total.trace_bytes) / per);
  put(m, "net.msgs_per_cmd", "count", stat("net.sent") / per);
  put(m, "net.datagrams_per_cmd", "count", stat("net.datagrams") / per);
  put(m, "net.wire_bytes_per_cmd", "B", stat("net.wire_bytes") / per);
  put(m, "net.batch_fill", "count",
      stat("net.sent") / std::max(1.0, stat("net.datagrams")));
  put(m, "vsys.retransmits_per_cmd", "count",
      stat("vs.retransmits_sent") / per);
  put(m, "storage.write_bytes_per_cmd", "B",
      (static_cast<double>(total.wchar) -
       static_cast<double>(total.trace_bytes)) /
          per);
  put(m, "storage.write_calls_per_cmd", "count",
      static_cast<double>(total.syscw) / per);
  put(m, "vsys.views_installed", "count", stat("vs.views_installed"));
  put(m, "tosys.views_established", "count", stat("to.views_established"));
  put(m, "net.dropped_oversize", "count", stat("net.dropped_oversize"));

  if (run.workload != "failover") return;
  // Membership and recovery, measured from the kill (at the survivors) and
  // from the restart (at p2). An event that never happens reads as the
  // rest of the load.
  const auto since = [&](std::uint64_t from, std::uint64_t event) {
    return static_cast<double>((event != 0 ? event : run.load_end) - from) /
           1000.0;
  };
  const auto at_survivors = [&](const auto& event_of) {
    std::uint64_t latest = 0;
    for (const int s : run.required) {
      const std::uint64_t t = event_of(nodes[s]);
      if (t == 0) return std::uint64_t{0};
      latest = std::max(latest, t);
    }
    return latest;
  };
  const std::uint64_t kill = run.kill_us;
  put(m, "failover_ms", "ms", longest_gap_ms(commits, kill, run.restart_us));
  put(m, "vsys.view_ms", "ms",
      since(kill, at_survivors([&](const NodeTrace& n) {
              return first_after(n.vs_views, kill);
            })));
  put(m, "dvsys.primary_ms", "ms",
      since(kill, at_survivors([&](const NodeTrace& n) {
              return first_after(n.dvs_views, kill);
            })));
  put(m, "dvsys.register_ms", "ms",
      since(kill, at_survivors([&](const NodeTrace& n) {
              return first_after(n.registers, kill);
            })));
  put(m, "tosys.resume_ms", "ms",
      since(kill, at_survivors([&](const NodeTrace& n) {
              const std::uint64_t view = first_after(n.dvs_views, kill);
              return view == 0 ? 0 : first_after(n.brcvs, view);
            })));
  put(m, "storage.recovery_ms", "ms", since(run.restart_us, run.recovered_us));
  put(m, "vsys.rejoin_view_ms", "ms",
      since(run.restart_us, first_after(nodes[2].vs_views, run.restart_us)));
  std::uint64_t rejoin = 0;
  for (std::size_t i = 0; i < run.cmds.size(); ++i) {
    const std::uint64_t t = nodes[2].stamps[i].brcv;
    if (run.cmds[i].due >= run.restart_us && t != 0 && (rejoin == 0 || t < rejoin)) {
      rejoin = t;
    }
  }
  put(m, "rejoin_ms", "ms", since(run.restart_us, rejoin));
}

void run_once(Run& run, const Options& opt) {
  const std::string dir = make_run_dir();
  run.required = run.workload == "failover" ? std::vector<int>{0, 1}
                                            : std::vector<int>{0, 1, 2};
  bring_up(run, opt, dir);
  Rng rng(run.seed);
  run.t_start = now_us() + kLeadUs;
  run.load_end = run.t_start + static_cast<std::uint64_t>(run.seconds * 1e6);
  schedule(run, rng);
  drive(run, rng);
  analyse(run);
  run.cluster.reset();
  if (run.failures.empty() && !opt.keep) {
    std::filesystem::remove_all(dir);
  } else {
    std::fprintf(stderr, "dvs_bench: run directory kept at %s\n", dir.c_str());
  }
}

/// Metric print order: what a client sees, then the rest by name.
std::vector<std::string> print_order(const std::map<std::string, Series>& m) {
  std::vector<std::string> out = {
      "commit_p50_ms", "commit_p95_ms",  "commit_p99_ms", "throughput_cmds_s",
      "failed_pct",    "cpu_us_per_cmd", "setup_s",       "stall_ms",
      "failover_ms",   "rejoin_ms"};
  std::erase_if(out, [&](const std::string& k) { return !m.contains(k); });
  for (const auto& [name, s] : m) {
    if (std::find(out.begin(), out.end(), name) == out.end()) {
      out.push_back(name);
    }
  }
  return out;
}

void print_table(std::ostream& os,
                 const std::map<std::string, WorkloadResult>& results) {
  for (const auto& [name, w] : results) {
    os << "\n" << name << (w.failures.empty() ? "" : "  [INVALID]") << "\n";
    for (const std::string& f : w.failures) os << "  check failed: " << f << "\n";
    for (const std::string& metric : print_order(w.metrics)) {
      const Series& s = w.metrics.at(metric);
      const std::array<double, 3> q = quartiles(s.values);
      char line[160];
      if (s.values.size() > 1) {
        std::snprintf(line, sizeof(line), "  %-30s %12.4g %-6s [%.4g, %.4g]\n",
                      metric.c_str(), q[1], s.unit.c_str(), q[0], q[2]);
      } else {
        std::snprintf(line, sizeof(line), "  %-30s %12.4g %s\n",
                      metric.c_str(), q[1], s.unit.c_str());
      }
      os << line;
    }
  }
}

std::string contract_line(const Run& run, int trace) {
  std::string out = std::string("{\"correct\": ") +
                    (run.failures.empty() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(run.cmds.size()) +
                    ", \"failed\": " + std::to_string(run.failed) +
                    ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const char* name) {
    const auto& [unit, value] = run.metrics.at(name);
    out += std::string(first ? "" : ", ") + "\"" + name +
           "\": {\"value\": " + format_number(value) + ", \"unit\": \"" +
           unit + "\"}";
    first = false;
  };
  if (trace == 0) {
    for (const char* name : kEndToEnd) emit(name);
  } else {
    for (const char* name : kPerLayer) emit(name);
  }
  return out + "}}";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Options parse_args(int argc, char** argv) {
  Options opt;
  const auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      throw std::runtime_error(std::string(argv[i]) + " needs a value");
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload") {
      opt.workload = value(i);
    } else if (a == "--seed") {
      opt.seed = std::stoull(value(i));
    } else if (a == "--seconds") {
      opt.seconds = std::stod(value(i));
    } else if (a == "--repeat") {
      opt.repeat = std::stoi(value(i));
    } else if (a == "--trace") {
      opt.trace = std::stoi(value(i));
    } else if (a == "--json") {
      opt.json = value(i);
    } else if (a == "--spans") {
      opt.spans = value(i);
    } else if (a == "--dvsd") {
      opt.dvsd = value(i);
    } else if (a == "--compare") {
      opt.compare.push_back(value(i));
      opt.compare.push_back(value(i));
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--keep") {
      opt.keep = true;
    } else {
      throw std::runtime_error("unknown argument " + a);
    }
  }
  const bool known = opt.workload.empty() ||
                     std::any_of(std::begin(kWorkloads), std::end(kWorkloads),
                                 [&](const Workload& w) {
                                   return opt.workload == w.name;
                                 });
  if (!known) throw std::runtime_error("unknown workload " + opt.workload);
  if (opt.repeat < 1 || opt.seconds < 0 || opt.trace > 1 ||
      (opt.trace >= 0 && (opt.workload.empty() || opt.repeat != 1))) {
    throw std::runtime_error(
        "bad arguments (--trace needs one --workload and --repeat 1)");
  }
  return opt;
}

int bench_main(const Options& opt) {
  if (!opt.compare.empty()) {
    const Json bench = parse_json(slurp("BENCHMARK.json"));
    return compare(bench, parse_json(slurp(opt.compare[0])),
                   parse_json(slurp(opt.compare[1])), std::cout) == 0
               ? 0
               : 1;
  }
  if (const char* env = std::getenv("DVS_NO_NET"); env && env[0] == '1') {
    std::fputs("dvs_bench: DVS_NO_NET=1, skipping\n", stderr);
    return 77;
  }
  install_signal_cleanup();
  // A contract run keeps stdout for its one result line.
  std::ostream& log = opt.trace >= 0 ? std::cerr : std::cout;
  std::map<std::string, WorkloadResult> results;
  std::string spans_csv =
      "workload,run,cmd,start_us,end_us,replica,submit_us,order_us,safe_us,"
      "handoff_us,confirm_us,complete\n";
  std::string last_line;
  for (const Workload& w : kWorkloads) {
    if (!opt.workload.empty() && opt.workload != w.name) continue;
    WorkloadResult& result = results[w.name];
    for (int r = 0; r < opt.repeat; ++r) {
      Run run;
      run.workload = w.name;
      run.seed = opt.seed + static_cast<std::uint64_t>(r);
      run.seconds = opt.seconds > 0 ? opt.seconds : opt.smoke ? 2 : w.seconds;
      run_once(run, opt);
      for (const std::string& f : run.failures) {
        std::fprintf(stderr, "dvs_bench: %s seed %llu: check failed: %s\n",
                     w.name, static_cast<unsigned long long>(run.seed),
                     f.c_str());
        result.failures.push_back(f);
      }
      result.attempted.push_back(static_cast<double>(run.cmds.size()));
      result.failed.push_back(static_cast<double>(run.failed));
      for (const auto& [name, uv] : run.metrics) {
        result.metrics[name].unit = uv.first;
        result.metrics[name].values.push_back(uv.second);
      }
      char line[200];
      std::snprintf(line, sizeof(line),
                    "%-8s seed %llu, %.0f s: %zu commands, %zu failed, "
                    "p50 %.2f ms, p99 %.2f ms, %.1f cmds/s%s\n",
                    w.name, static_cast<unsigned long long>(run.seed),
                    run.seconds, run.cmds.size(), run.failed,
                    run.metrics["commit_p50_ms"].second,
                    run.metrics["commit_p99_ms"].second,
                    run.metrics["throughput_cmds_s"].second,
                    run.failures.empty() ? "" : "  [INVALID]");
      log << line << std::flush;
      for (const Span& s : run.spans) {
        if (opt.spans.empty()) break;
        spans_csv += std::string(w.name) + "," + std::to_string(r) + "," +
                     std::to_string(s.cmd) + "," + std::to_string(s.start_us) +
                     "," + std::to_string(s.end_us) + ",p" +
                     std::to_string(s.replica);
        for (const std::int64_t c : s.child) spans_csv += "," + std::to_string(c);
        spans_csv += s.complete ? ",1\n" : ",0\n";
      }
      if (opt.trace >= 0) last_line = contract_line(run, opt.trace);
    }
  }
  const std::map<std::string, std::string> meta = {
      {"nproc", std::to_string(::sysconf(_SC_NPROCESSORS_ONLN))},
      {"build_type", DVS_BUILD_TYPE},
      {"seed", std::to_string(opt.seed)},
      {"repeat", std::to_string(opt.repeat)},
      {"seconds", opt.seconds > 0 ? format_number(opt.seconds)
                                  : opt.smoke ? "2" : "default"},
      {"dvsd", opt.dvsd}};
  log << "\nnproc " << meta.at("nproc") << ", build " << meta.at("build_type")
      << ", seed " << opt.seed << ", dvsd " << opt.dvsd << "\n";
  print_table(log, results);
  if (!opt.json.empty()) std::ofstream(opt.json) << results_json(meta, results);
  if (!opt.spans.empty()) std::ofstream(opt.spans) << spans_csv;
  if (!last_line.empty()) std::cout << last_line << std::endl;
  const bool ok = std::all_of(results.begin(), results.end(), [](const auto& w) {
    return w.second.failures.empty();
  });
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace dvs::bench

int main(int argc, char** argv) {
  try {
    return dvs::bench::bench_main(dvs::bench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dvs_bench: %s\n", e.what());
    return 2;
  }
}
