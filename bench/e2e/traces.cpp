#include "traces.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <variant>

#include "daemon/trace_io.h"

namespace dvs::bench {

namespace {

/// The labelled client message inside a VS or DVS message, if any.
template <typename M>
const LabeledAppMsg* labelled(const M& m) {
  return std::get_if<LabeledAppMsg>(&m);
}

void first(std::uint64_t& slot, std::uint64_t ts) {
  if (slot == 0) slot = ts;
}

/// Read size per storage::read_wal call (a few dozen trace records).
constexpr std::size_t kChunk = 4096;

}  // namespace

std::int64_t command_index(const std::string& payload) {
  const std::size_t sp = payload.rfind(' ');
  if (sp == std::string::npos || sp + 2 > payload.size() ||
      payload[sp + 1] != 'v') {
    return -1;
  }
  std::int64_t index = 0;
  for (std::size_t i = sp + 2; i < payload.size(); ++i) {
    if (payload[i] < '0' || payload[i] > '9') return -1;
    index = index * 10 + (payload[i] - '0');
  }
  return index;
}

TraceTail::~TraceTail() {
  if (fd_ >= 0) ::close(fd_);
}

void TraceTail::poll(
    const std::function<void(const storage::WalRecord&)>& on_record) {
  if (fd_ < 0) fd_ = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  struct stat st{};
  if (fd_ < 0 || ::fstat(fd_, &st) != 0) return;
  const auto size = static_cast<std::uint64_t>(st.st_size);
  // storage::read_wal copies the rest of its buffer for every record, so
  // the file is fed to it in small chunks; a chunk grows only while a
  // single record does not fit.
  std::size_t want = kChunk;
  while (offset_ < size) {
    const std::size_t n = std::min<std::uint64_t>(want, size - offset_);
    chunk_.resize(n);
    const ssize_t got =
        ::pread(fd_, chunk_.data(), n, static_cast<off_t>(offset_));
    if (got <= 0) return;
    chunk_.resize(static_cast<std::size_t>(got));
    const storage::WalContents contents = storage::read_wal(chunk_);
    for (const storage::WalRecord& rec : contents.records) on_record(rec);
    if (contents.bytes_consumed == 0) {
      if (n == size - offset_) return;  // a record still being written
      want *= 2;
      continue;
    }
    offset_ += contents.bytes_consumed;
    want = kChunk;
  }
}

bool brcv_of(const storage::WalRecord& rec, std::int64_t& index,
             std::uint64_t& ts_us) {
  if (rec.type != daemon::kTraceTo) return false;
  try {
    Reader r(rec.payload);
    ts_us = r.u64();
    const spec::ToEvent ev = daemon::decode_to_event(r);
    const auto* b = std::get_if<spec::EvBrcv>(&ev);
    if (b == nullptr) return false;
    index = command_index(b->a.payload);
    return index >= 0;
  } catch (const DecodeError&) {
    return false;  // CRC-clean but undecodable: carries no commit
  }
}

NodeTrace decode_node(const std::string& path, std::size_t commands) {
  NodeTrace out;
  out.incarnations.emplace_back();
  out.bcasts.assign(commands, {0, 0});
  out.stamps.assign(commands, Stamps{});
  const auto stamps_of = [&](const std::string& payload) -> Stamps* {
    const std::int64_t i = command_index(payload);
    if (i < 0 || static_cast<std::size_t>(i) >= commands) return nullptr;
    return &out.stamps[static_cast<std::size_t>(i)];
  };
  const auto on_vs = [&](const spec::VsEvent& ev, std::uint64_t ts) {
    if (std::holds_alternative<spec::EvNewview>(ev)) {
      out.vs_views.push_back(ts);
    } else if (const auto* g = std::get_if<spec::EvGprcv<Msg>>(&ev)) {
      if (const auto* l = labelled(g->m)) {
        if (Stamps* s = stamps_of(l->msg.payload)) first(s->vs_gprcv, ts);
      }
    } else if (const auto* sf = std::get_if<spec::EvSafe<Msg>>(&ev)) {
      if (const auto* l = labelled(sf->m)) {
        if (Stamps* s = stamps_of(l->msg.payload)) first(s->vs_safe, ts);
      }
    }
  };
  const auto on_dvs = [&](const spec::DvsEvent& ev, std::uint64_t ts) {
    if (std::holds_alternative<spec::EvNewview>(ev)) {
      out.dvs_views.push_back(ts);
    } else if (std::holds_alternative<spec::EvRegister>(ev)) {
      out.registers.push_back(ts);
    } else if (const auto* sf = std::get_if<spec::EvSafe<ClientMsg>>(&ev)) {
      if (const auto* l = labelled(sf->m)) {
        if (Stamps* s = stamps_of(l->msg.payload)) first(s->dvs_safe, ts);
      }
    }
  };
  const auto on_to = [&](const spec::ToEvent& ev, std::uint64_t ts) {
    if (std::holds_alternative<spec::EvCrash>(ev)) {
      out.incarnations.emplace_back();
    } else if (const auto* b = std::get_if<spec::EvBcast>(&ev)) {
      const std::int64_t i = command_index(b->a.payload);
      if (i >= 0 && static_cast<std::size_t>(i) < commands) {
        out.bcasts[static_cast<std::size_t>(i)] = {b->a.uid, ts};
      }
    } else if (const auto* r = std::get_if<spec::EvBrcv>(&ev)) {
      out.brcvs.push_back(ts);
      out.incarnations.back().push_back(command_index(r->a.payload));
      if (Stamps* s = stamps_of(r->a.payload)) first(s->brcv, ts);
    }
  };
  TraceTail tail(path);
  tail.poll([&](const storage::WalRecord& rec) {
    try {
      Reader r(rec.payload);
      switch (rec.type) {
        case daemon::kTraceVs: {
          const std::uint64_t ts = r.u64();
          on_vs(daemon::decode_vs_event(r), ts);
          break;
        }
        case daemon::kTraceDvs: {
          const std::uint64_t ts = r.u64();
          on_dvs(daemon::decode_dvs_event(r), ts);
          break;
        }
        case daemon::kTraceTo: {
          const std::uint64_t ts = r.u64();
          on_to(daemon::decode_to_event(r), ts);
          break;
        }
        default:
          break;  // incarnation headers
      }
    } catch (const DecodeError&) {
      // The offline audit reports undecodable records; timing skips them.
    }
  });
  return out;
}

std::string check_order(const std::vector<NodeTrace>& nodes) {
  // Reference: the longest first incarnation. Every incarnation must be a
  // contiguous run of it — first incarnations from its start, restarted
  // ones from wherever their restored cursor resumed — and may extend it.
  std::vector<std::int64_t> ref;
  for (const NodeTrace& n : nodes) {
    const auto& d = n.incarnations.front();
    if (d.size() > ref.size()) ref = d;
  }
  std::map<std::int64_t, std::size_t> pos;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (!pos.emplace(ref[i], i).second) {
      return "command " + std::to_string(ref[i]) + " delivered twice";
    }
  }
  for (std::size_t p = 0; p < nodes.size(); ++p) {
    for (std::size_t k = 0; k < nodes[p].incarnations.size(); ++k) {
      const auto& d = nodes[p].incarnations[k];
      if (d.empty()) continue;
      std::size_t at = 0;
      if (k > 0) {
        const auto it = pos.find(d.front());
        if (it == pos.end()) {
          return "p" + std::to_string(p) + " resumed at command " +
                 std::to_string(d.front()) + " outside the common order";
        }
        at = it->second;
      }
      for (std::size_t i = 0; i < d.size(); ++i, ++at) {
        if (at == ref.size()) {
          if (!pos.emplace(d[i], at).second) {
            return "command " + std::to_string(d[i]) + " delivered twice";
          }
          ref.push_back(d[i]);
        } else if (ref[at] != d[i]) {
          return "p" + std::to_string(p) + " delivered command " +
                 std::to_string(d[i]) + " at position " + std::to_string(at) +
                 " where the common order has " + std::to_string(ref[at]);
        }
      }
    }
  }
  return "";
}

Span make_span(const std::vector<NodeTrace>& nodes, std::int64_t cmd,
               std::uint64_t due, int origin,
               const std::vector<int>& required) {
  const auto c = static_cast<std::size_t>(cmd);
  Span span;
  span.cmd = cmd;
  span.start_us = due;
  span.replica = required.front();
  for (const int r : required) {
    if (nodes[r].stamps[c].brcv > nodes[span.replica].stamps[c].brcv) {
      span.replica = r;
    }
  }
  const Stamps& s = nodes[span.replica].stamps[c];
  span.end_us = s.brcv;
  std::array<std::uint64_t, 6> b = {due,         nodes[origin].bcasts[c][1],
                                    s.vs_gprcv,  s.vs_safe,
                                    s.dvs_safe,  s.brcv};
  // A missing boundary takes the next recorded one; the clamps keep every
  // child non-negative while pinning both ends to the parent.
  for (std::size_t i = 4; i >= 1; --i) {
    if (b[i] == 0) {
      span.complete = false;
      b[i] = b[i + 1];
    }
    b[i] = std::max(b[0], std::min(b[i], b[i + 1]));
  }
  for (std::size_t i = 0; i < 5; ++i) {
    span.child[i] =
        static_cast<std::int64_t>(b[i + 1]) - static_cast<std::int64_t>(b[i]);
  }
  return span;
}

}  // namespace dvs::bench
