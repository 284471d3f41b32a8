#include "workload/scenario.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace dvs::workload {

namespace {

constexpr std::uint64_t kChurnSalt = 0xc4a2f70c0de5eedULL;

[[noreturn]] void bad_line(std::size_t lineno, const std::string& line,
                           const std::string& why) {
  throw std::runtime_error("scenario line " + std::to_string(lineno) + " (" +
                           line + "): " + why);
}

std::uint64_t parse_u64(const std::string& s) {
  std::size_t pos = 0;
  const std::uint64_t v = std::stoull(s, &pos);
  if (pos != s.size()) {
    throw std::runtime_error("trailing garbage in '" + s + "'");
  }
  return v;
}

double parse_double(const std::string& s) {
  std::size_t pos = 0;
  const double v = std::stod(s, &pos);
  if (pos != s.size()) {
    throw std::runtime_error("trailing garbage in '" + s + "'");
  }
  return v;
}

bool parse_on_off(const std::string& s) {
  if (s == "on") return true;
  if (s == "off") return false;
  throw std::runtime_error("want on|off, got '" + s + "'");
}

/// Round-trip-exact double formatting (%.17g), matching net::FaultPlan.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::uint64_t to_ms(sim::Time t) { return t / sim::kMillisecond; }

void require_ms(sim::Time t, const char* what) {
  if (t % sim::kMillisecond != 0) {
    throw std::runtime_error(std::string("scenario: ") + what +
                             " must have millisecond granularity");
  }
}

ProcessId parse_process(const std::string& s) {
  const std::uint64_t id = parse_u64(s);
  if (id > std::numeric_limits<ProcessId::Rep>::max()) {
    throw std::runtime_error("process id " + s + " out of range");
  }
  return ProcessId{static_cast<ProcessId::Rep>(id)};
}

std::vector<ProcessId> parse_targets(const std::string& text) {
  std::vector<ProcessId> out;
  std::istringstream ts(text);
  std::string id;
  while (std::getline(ts, id, ',')) out.push_back(parse_process(id));
  if (out.empty()) throw std::runtime_error("empty target list");
  return out;
}

std::string format_targets(const std::vector<ProcessId>& targets) {
  std::string out;
  for (ProcessId p : targets) {
    if (!out.empty()) out += ',';
    out += std::to_string(p.value());
  }
  return out;
}

}  // namespace

Scenario Scenario::parse(const std::string& text) {
  Scenario s;
  s.phases.clear();
  // `region P R` and `latency A B MS` lines index by process and by region,
  // and both ids are below n (n processes fill at most n regions). They are
  // applied once every line is read and n is known, so an id past it is
  // rejected with its line before it sizes anything.
  struct IndexedLine {
    std::size_t lineno;
    std::string line;
    std::size_t a, b;
    sim::Time us;  // latency only
  };
  std::vector<IndexedLine> region_lines;
  std::vector<IndexedLine> latency_lines;
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;  // blank / comment-only line
    try {
      auto word = [&]() {
        std::string w;
        if (!(ls >> w)) throw std::runtime_error("missing value");
        return w;
      };
      auto ms_value = [&]() {
        return static_cast<sim::Time>(parse_u64(word())) * sim::kMillisecond;
      };
      if (key == "name") {
        s.name = word();
      } else if (key == "n") {
        s.n = parse_u64(word());
      } else if (key == "initial") {
        s.initial = parse_u64(word());
      } else if (key == "shards") {
        s.shards = parse_u64(word());
      } else if (key == "replication") {
        s.replication = parse_u64(word());
      } else if (key == "dynamic") {
        s.dynamic = parse_on_off(word());
      } else if (key == "seeds") {
        s.seeds = parse_u64(word());
      } else if (key == "seed") {
        s.seed = parse_u64(word());
      } else if (key == "warmup_ms") {
        s.warmup = ms_value();
      } else if (key == "horizon_ms") {
        s.horizon = ms_value();
      } else if (key == "settle_ms") {
        s.settle = ms_value();
      } else if (key == "heartbeat_ms") {
        s.heartbeat_ms = parse_u64(word());
      } else if (key == "suspect_ms") {
        s.suspect_ms = parse_u64(word());
      } else if (key == "propose_ms") {
        s.propose_ms = parse_u64(word());
      } else if (key == "batching") {
        s.net.batching = parse_on_off(word());
      } else if (key == "persistence") {
        s.persistence = parse_on_off(word());
      } else if (key == "clients") {
        s.clients = parse_u64(word());
      } else if (key == "loop") {
        const std::string v = word();
        if (v == "closed") {
          s.closed_loop = true;
        } else if (v == "open") {
          s.closed_loop = false;
        } else {
          throw std::runtime_error("want loop closed|open, got '" + v + "'");
        }
      } else if (key == "rate") {
        s.rate = parse_double(word());
      } else if (key == "think_ms") {
        s.think = ms_value();
      } else if (key == "keys") {
        s.mix.keys = parse_u64(word());
      } else if (key == "dist") {
        s.mix.dist = parse_key_dist(word());
      } else if (key == "theta") {
        s.mix.theta = parse_double(word());
      } else if (key == "reads") {
        s.mix.reads = static_cast<std::uint32_t>(parse_u64(word()));
      } else if (key == "writes") {
        s.mix.writes = static_cast<std::uint32_t>(parse_u64(word()));
      } else if (key == "scans") {
        s.mix.scans = static_cast<std::uint32_t>(parse_u64(word()));
      } else if (key == "scan_len") {
        s.mix.scan_len = parse_u64(word());
      } else if (key == "value_len") {
        s.mix.value_len = parse_u64(word());
      } else if (key == "sample_ms") {
        s.sample_period = ms_value();
      } else if (key == "phase") {
        Phase ph;
        ph.name = word();
        ph.duration = ms_value();
        ph.rate_mult = parse_double(word());
        s.phases.push_back(std::move(ph));
      } else if (key == "burst") {
        s.burst_period = ms_value();
        s.burst_len = ms_value();
        s.burst_mult = parse_double(word());
      } else if (key == "region") {  // braced lists read left to right
        region_lines.push_back(
            {lineno, line, parse_u64(word()), parse_u64(word()), 0});
      } else if (key == "latency") {
        latency_lines.push_back(
            {lineno, line, parse_u64(word()), parse_u64(word()), ms_value()});
      } else if (key == "drop") {
        s.net.drop_probability = parse_double(word());
      } else if (key == "duplicate") {
        s.net.duplicate_probability = parse_double(word());
      } else if (key == "flap") {
        FlapSpec f;
        f.target = parse_process(word());
        f.first = ms_value();
        f.period = ms_value();
        f.down = ms_value();
        f.count = parse_u64(word());
        s.flaps.push_back(f);
      } else if (key == "crash_group") {
        CrashGroupSpec g;
        g.at = ms_value();
        g.down = ms_value();
        g.targets = parse_targets(word());
        s.crash_groups.push_back(std::move(g));
      } else if (key == "rolling_restart") {
        RollingRestartSpec r;
        r.start = ms_value();
        r.stagger = ms_value();
        s.rolling_restart = r;
      } else if (key == "drop_window" || key == "dup_burst") {
        WindowSpec w;
        w.at = ms_value();
        w.duration = ms_value();
        w.probability = parse_double(word());
        (key == "drop_window" ? s.drop_windows : s.dup_bursts).push_back(w);
      } else if (key == "churn") {
        ChurnSpec c;
        c.events_per_sec = parse_double(word());
        const std::string kind = word();
        if (kind == "pause") {
          c.restart_semantics = false;
        } else if (kind == "restart") {
          c.restart_semantics = true;
        } else {
          throw std::runtime_error("want churn ... pause|restart, got '" +
                                   kind + "'");
        }
        c.down_min = ms_value();
        c.down_max = ms_value();
        s.churn = c;
      } else if (key == "slo_availability_ppm") {
        s.slo_availability_ppm = parse_u64(word());
      } else if (key == "slo_p99_commit_ms") {
        s.slo_p99_commit_ms = parse_u64(word());
      } else {
        bad_line(lineno, line, "unknown key '" + key + "'");
      }
      std::string trailing;
      if (ls >> trailing) {
        bad_line(lineno, line, "trailing token '" + trailing + "'");
      }
    } catch (const std::runtime_error& e) {
      bad_line(lineno, line, e.what());
    } catch (const std::invalid_argument&) {
      bad_line(lineno, line, "malformed number");
    } catch (const std::out_of_range&) {
      bad_line(lineno, line, "number out of range");
    }
  }
  std::vector<std::size_t>& region = s.net.process_region;
  for (const IndexedLine& l : region_lines) {
    if (l.a >= s.n) bad_line(l.lineno, l.line, "process outside 0..n-1");
    region.resize(std::max(region.size(), l.a + 1), 0);
    region[l.a] = l.b;
  }
  std::vector<std::vector<sim::Time>>& latency = s.net.region_delay;
  for (const IndexedLine& l : latency_lines) {
    const std::size_t top = std::max(l.a, l.b);
    if (top >= s.n) bad_line(l.lineno, l.line, "region outside 0..n-1");
    if (latency.size() <= top) {
      for (auto& row : latency) row.resize(top + 1, 0);
      latency.resize(top + 1, std::vector<sim::Time>(top + 1, 0));
    }
    latency[l.a][l.b] = l.us;  // symmetric: one line sets both directions
    latency[l.b][l.a] = l.us;
  }
  s.validate();
  return s;
}

Scenario Scenario::parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("scenario: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

std::string Scenario::to_string() const {
  std::ostringstream os;
  os << "name " << name << "\n";
  os << "n " << n << "\n";
  if (initial != 0) os << "initial " << initial << "\n";
  if (shards != 0) os << "shards " << shards << "\n";
  if (replication != 0) os << "replication " << replication << "\n";
  if (dynamic) os << "dynamic on\n";
  os << "seeds " << seeds << "\n";
  os << "seed " << seed << "\n";
  os << "warmup_ms " << to_ms(warmup) << "\n";
  os << "horizon_ms " << to_ms(horizon) << "\n";
  os << "settle_ms " << to_ms(settle) << "\n";
  if (heartbeat_ms != 0) os << "heartbeat_ms " << heartbeat_ms << "\n";
  if (suspect_ms != 0) os << "suspect_ms " << suspect_ms << "\n";
  if (propose_ms != 0) os << "propose_ms " << propose_ms << "\n";
  os << "batching " << (net.batching ? "on" : "off") << "\n";
  os << "persistence " << (persistence ? "on" : "off") << "\n";
  os << "clients " << clients << "\n";
  os << "loop " << (closed_loop ? "closed" : "open") << "\n";
  os << "rate " << fmt_double(rate) << "\n";
  os << "think_ms " << to_ms(think) << "\n";
  os << "keys " << mix.keys << "\n";
  os << "dist " << workload::to_string(mix.dist) << "\n";
  os << "theta " << fmt_double(mix.theta) << "\n";
  os << "reads " << mix.reads << "\n";
  os << "writes " << mix.writes << "\n";
  os << "scans " << mix.scans << "\n";
  os << "scan_len " << mix.scan_len << "\n";
  os << "value_len " << mix.value_len << "\n";
  os << "sample_ms " << to_ms(sample_period) << "\n";
  for (const Phase& ph : phases) {
    os << "phase " << ph.name << " " << to_ms(ph.duration) << " "
       << fmt_double(ph.rate_mult) << "\n";
  }
  if (burst_period != 0) {
    os << "burst " << to_ms(burst_period) << " " << to_ms(burst_len) << " "
       << fmt_double(burst_mult) << "\n";
  }
  const std::vector<std::size_t>& region = net.process_region;
  for (std::size_t p = 0; p < region.size(); ++p) {
    os << "region " << p << " " << region[p] << "\n";
  }
  const std::vector<std::vector<sim::Time>>& latency = net.region_delay;
  for (std::size_t a = 0; a < latency.size(); ++a) {
    for (std::size_t b = a; b < latency.size(); ++b) {
      os << "latency " << a << " " << b << " " << to_ms(latency[a][b])
         << "\n";
    }
  }
  if (net.drop_probability != 0.0) {
    os << "drop " << fmt_double(net.drop_probability) << "\n";
  }
  if (net.duplicate_probability != 0.0) {
    os << "duplicate " << fmt_double(net.duplicate_probability) << "\n";
  }
  for (const FlapSpec& f : flaps) {
    os << "flap " << f.target.value() << " " << to_ms(f.first) << " "
       << to_ms(f.period) << " " << to_ms(f.down) << " " << f.count << "\n";
  }
  for (const CrashGroupSpec& g : crash_groups) {
    os << "crash_group " << to_ms(g.at) << " " << to_ms(g.down) << " "
       << format_targets(g.targets) << "\n";
  }
  if (rolling_restart.has_value()) {
    os << "rolling_restart " << to_ms(rolling_restart->start) << " "
       << to_ms(rolling_restart->stagger) << "\n";
  }
  for (const WindowSpec& w : drop_windows) {
    os << "drop_window " << to_ms(w.at) << " " << to_ms(w.duration) << " "
       << fmt_double(w.probability) << "\n";
  }
  for (const WindowSpec& w : dup_bursts) {
    os << "dup_burst " << to_ms(w.at) << " " << to_ms(w.duration) << " "
       << fmt_double(w.probability) << "\n";
  }
  if (churn.has_value()) {
    os << "churn " << fmt_double(churn->events_per_sec) << " "
       << (churn->restart_semantics ? "restart" : "pause") << " "
       << to_ms(churn->down_min) << " " << to_ms(churn->down_max) << "\n";
  }
  if (slo_availability_ppm != 0) {
    os << "slo_availability_ppm " << slo_availability_ppm << "\n";
  }
  if (slo_p99_commit_ms != 0) {
    os << "slo_p99_commit_ms " << slo_p99_commit_ms << "\n";
  }
  return os.str();
}

void Scenario::validate() const {
  auto fail = [](const std::string& why) -> void {
    throw std::runtime_error("scenario: " + why);
  };
  if (n == 0) fail("n must be > 0");
  if (initial > n) fail("initial > n");
  if (replication != 0 && shards == 0) {
    fail("replication needs shards >= 1");
  }
  if (replication > n) fail("replication > n");
  if (shards > 1 && initial != 0) {
    fail("initial members are only meaningful with shards 0|1");
  }
  if (dynamic && shards == 0) fail("dynamic needs shards >= 1");
  if (seeds == 0) fail("seeds must be >= 1");
  if (horizon == 0) fail("horizon_ms must be > 0");
  if (warmup >= horizon) fail("warmup must be shorter than the horizon");
  require_ms(warmup, "warmup");
  require_ms(horizon, "horizon");
  require_ms(settle, "settle");
  require_ms(think, "think");
  require_ms(sample_period, "sample_ms");
  if (sample_period == 0) fail("sample_ms must be > 0");
  if (clients == 0) fail("clients must be >= 1");
  if (!closed_loop && rate <= 0.0) fail("open loop needs rate > 0");
  mix.validate();
  if (!phases.empty()) {
    sim::Time total = 0;
    for (const Phase& ph : phases) {
      require_ms(ph.duration, "phase duration");
      if (ph.duration == 0) fail("phase '" + ph.name + "' has zero duration");
      if (ph.rate_mult <= 0.0) {
        fail("phase '" + ph.name + "' needs rate_mult > 0");
      }
      total += ph.duration;
    }
    if (total != horizon) {
      fail("phase durations sum to " + std::to_string(to_ms(total)) +
           "ms, horizon is " + std::to_string(to_ms(horizon)) + "ms");
    }
  }
  if (burst_period != 0) {
    require_ms(burst_period, "burst period");
    require_ms(burst_len, "burst length");
    if (burst_len > burst_period) fail("burst length exceeds its period");
    if (burst_mult <= 0.0) fail("burst mult must be > 0");
  }
  const std::vector<std::size_t>& region = net.process_region;
  const std::vector<std::vector<sim::Time>>& latency = net.region_delay;
  if (!region.empty()) {
    if (region.size() != n) fail("region lines must cover exactly 0..n-1");
    if (latency.empty()) fail("regions assigned but no latency matrix");
  }
  for (std::size_t a = 0; a < latency.size(); ++a) {
    if (latency[a].size() != latency.size()) {
      fail("latency matrix not square");
    }
  }
  if (!latency.empty()) {
    for (std::size_t p = 0; p < n; ++p) {
      const std::size_t r = p < region.size() ? region[p] : 0;
      if (r >= latency.size()) {
        fail("process " + std::to_string(p) + " in region " +
             std::to_string(r) + " outside the latency matrix");
      }
    }
  }
  const double drop = net.drop_probability;
  const double duplicate = net.duplicate_probability;
  if (drop < 0.0 || drop > 1.0) fail("drop must be in [0,1]");
  if (duplicate < 0.0 || duplicate > 1.0) fail("duplicate must be in [0,1]");
  // Flap windows drive the single global partition state, so they must not
  // overlap each other (and a flap must fit inside its period).
  struct Window {
    sim::Time start, end;
  };
  std::vector<Window> flap_windows;
  for (const FlapSpec& f : flaps) {
    if (f.target.value() >= n) fail("flap target outside universe");
    if (f.count == 0) fail("flap count must be > 0");
    if (f.down == 0) fail("flap down time must be > 0");
    if (f.count > 1 && f.down >= f.period) {
      fail("flap down time must be shorter than its period");
    }
    require_ms(f.first, "flap first");
    require_ms(f.period, "flap period");
    require_ms(f.down, "flap down");
    for (std::size_t k = 0; k < f.count; ++k) {
      const sim::Time at = f.first + static_cast<sim::Time>(k) * f.period;
      flap_windows.push_back({at, at + f.down});
    }
  }
  std::sort(flap_windows.begin(), flap_windows.end(),
            [](const Window& a, const Window& b) { return a.start < b.start; });
  for (std::size_t i = 1; i < flap_windows.size(); ++i) {
    if (flap_windows[i].start < flap_windows[i - 1].end) {
      fail("flap windows overlap (partition state is global)");
    }
  }
  for (const CrashGroupSpec& g : crash_groups) {
    if (g.targets.empty()) fail("crash_group without targets");
    if (g.targets.size() >= n) {
      fail("crash_group must leave at least one process alive");
    }
    for (ProcessId p : g.targets) {
      if (p.value() >= n) fail("crash_group target outside universe");
    }
    if (g.down == 0) fail("crash_group down time must be > 0");
    require_ms(g.at, "crash_group at");
    require_ms(g.down, "crash_group down");
  }
  if (rolling_restart.has_value()) {
    require_ms(rolling_restart->start, "rolling_restart start");
    require_ms(rolling_restart->stagger, "rolling_restart stagger");
  }
  for (const WindowSpec& w : drop_windows) {
    require_ms(w.at, "drop_window at");
    require_ms(w.duration, "drop_window duration");
    if (w.probability < 0.0 || w.probability > 1.0) {
      fail("drop_window probability must be in [0,1]");
    }
  }
  for (const WindowSpec& w : dup_bursts) {
    require_ms(w.at, "dup_burst at");
    require_ms(w.duration, "dup_burst duration");
    if (w.probability < 0.0 || w.probability > 1.0) {
      fail("dup_burst probability must be in [0,1]");
    }
  }
  if (churn.has_value()) {
    if (churn->events_per_sec <= 0.0) fail("churn rate must be > 0");
    if (churn->down_min == 0) fail("churn down_min must be > 0");
    if (churn->down_min > churn->down_max) fail("churn down_min > down_max");
    require_ms(churn->down_min, "churn down_min");
    require_ms(churn->down_max, "churn down_max");
    if (n < 2) fail("churn needs n >= 2");
  }
  if (slo_availability_ppm > 1'000'000) {
    fail("slo_availability_ppm must be <= 1000000");
  }
}

bool Scenario::needs_persistence() const {
  return persistence || dynamic || rolling_restart.has_value() ||
         (churn.has_value() && churn->restart_semantics);
}

bool Scenario::crashes_restart() const {
  return churn.has_value() && churn->restart_semantics;
}

net::FaultPlan Scenario::compile_faults(std::uint64_t run_seed) const {
  net::FaultPlan plan;
  auto& ev = plan.events;

  ProcessSet universe = make_universe(n);
  for (const FlapSpec& f : flaps) {
    ProcessSet rest;
    for (ProcessId p : universe) {
      if (p != f.target) rest.insert(p);
    }
    for (std::size_t k = 0; k < f.count; ++k) {
      const sim::Time at = f.first + static_cast<sim::Time>(k) * f.period;
      net::FaultEvent cut;
      cut.kind = net::FaultEvent::Kind::kPartition;
      cut.at = at;
      cut.groups = {ProcessSet{f.target}, rest};
      ev.push_back(std::move(cut));
      net::FaultEvent heal;
      heal.kind = net::FaultEvent::Kind::kHeal;
      heal.at = at + f.down;
      ev.push_back(heal);
    }
  }
  for (const CrashGroupSpec& g : crash_groups) {
    for (ProcessId p : g.targets) {
      net::FaultEvent crash;
      crash.kind = net::FaultEvent::Kind::kCrash;
      crash.at = g.at;
      crash.target = p;
      ev.push_back(crash);
      net::FaultEvent recover;
      recover.kind = net::FaultEvent::Kind::kRecover;
      recover.at = g.at + g.down;
      recover.target = p;
      ev.push_back(recover);
    }
  }
  if (rolling_restart.has_value()) {
    for (std::size_t i = 0; i < n; ++i) {
      net::FaultEvent restart;
      restart.kind = net::FaultEvent::Kind::kRestart;
      restart.at = rolling_restart->start +
                   static_cast<sim::Time>(i) * rolling_restart->stagger;
      restart.target = ProcessId{static_cast<ProcessId::Rep>(i)};
      ev.push_back(restart);
    }
  }
  for (const WindowSpec& w : drop_windows) {
    net::FaultEvent e;
    e.kind = net::FaultEvent::Kind::kDropWindow;
    e.at = w.at;
    e.duration = w.duration;
    e.probability = w.probability;
    ev.push_back(e);
  }
  for (const WindowSpec& w : dup_bursts) {
    net::FaultEvent e;
    e.kind = net::FaultEvent::Kind::kDupBurst;
    e.at = w.at;
    e.duration = w.duration;
    e.probability = w.probability;
    ev.push_back(e);
  }
  if (churn.has_value()) {
    // Seeded crash/recover churn stream, decorrelated from the cluster and
    // client RNGs. Always kCrash/kRecover — the pause-vs-restart choice is
    // the runner's ScheduleHooks::crashes_restart knob, never a different
    // event vocabulary.
    Rng rng(run_seed ^ kChurnSalt);
    const double mean_gap_us = 1e6 / churn->events_per_sec;
    std::vector<sim::Time> down_until(n, 0);
    const std::size_t down_span_ms =
        to_ms(churn->down_max) - to_ms(churn->down_min) + 1;
    sim::Time t = warmup;
    while (true) {
      const double gap = rng.exponential(mean_gap_us);
      t += gap < 1.0 ? 1 : static_cast<sim::Time>(gap);
      if (t >= horizon) break;
      std::size_t down_now = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (down_until[i] > t) ++down_now;
      }
      const std::size_t target = rng.below(n);
      // Keep one process alive and never re-crash a crashed one — the same
      // graceful-degrade discipline as FaultPlan::random (the draw is
      // consumed either way, keeping the stream deterministic).
      if (down_until[target] > t || down_now + 1 >= n) continue;
      const sim::Time down =
          churn->down_min +
          static_cast<sim::Time>(rng.below(down_span_ms)) * sim::kMillisecond;
      // Every outage ends before the horizon: the settle epilogue starts
      // with all processes up, so rejoin view changes complete (no spans
      // left open at trace end). The draws above are consumed either way.
      if (t + down >= horizon) continue;
      net::FaultEvent crash;
      crash.kind = net::FaultEvent::Kind::kCrash;
      crash.at = t;
      crash.target = ProcessId{static_cast<ProcessId::Rep>(target)};
      ev.push_back(crash);
      net::FaultEvent recover;
      recover.kind = net::FaultEvent::Kind::kRecover;
      recover.at = t + down;
      recover.target = crash.target;
      ev.push_back(recover);
      down_until[target] = t + down;
    }
  }

  std::stable_sort(ev.begin(), ev.end(),
                   [](const net::FaultEvent& a, const net::FaultEvent& b) {
                     return a.at < b.at;
                   });
  return plan;
}

std::vector<Phase> Scenario::effective_phases() const {
  if (!phases.empty()) return phases;
  return {Phase{"steady", horizon, 1.0}};
}

double Scenario::rate_mult_at(sim::Time t) const {
  double mult = 1.0;
  if (!phases.empty()) {
    sim::Time edge = 0;
    mult = phases.back().rate_mult;  // t past the horizon: last phase rules
    for (const Phase& ph : phases) {
      edge += ph.duration;
      if (t < edge) {
        mult = ph.rate_mult;
        break;
      }
    }
  }
  if (burst_period != 0 && (t % burst_period) < burst_len) {
    mult *= burst_mult;
  }
  return mult;
}

}  // namespace dvs::workload
