#include "daemon/trace_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <type_traits>

#include "storage/wal.h"

namespace dvs::daemon {

namespace {

// Group-event tags (VS and DVS share the layout; only the message type
// differs).
constexpr std::uint8_t kTagGpsnd = 1;
constexpr std::uint8_t kTagGprcv = 2;
constexpr std::uint8_t kTagSafe = 3;
constexpr std::uint8_t kTagNewview = 4;
constexpr std::uint8_t kTagRegister = 5;
// TO-event tags.
constexpr std::uint8_t kTagBcast = 1;
constexpr std::uint8_t kTagBrcv = 2;
constexpr std::uint8_t kTagCrash = 3;
constexpr std::uint8_t kTagHandoff = 4;

void put_msg(Writer& w, const Msg& m) { w.msg(m); }
void put_msg(Writer& w, const ClientMsg& m) { w.client_msg(m); }

template <typename MsgT>
MsgT get_msg(Reader& r) {
  if constexpr (std::is_same_v<MsgT, Msg>) {
    return r.msg();
  } else {
    return r.client_msg();
  }
}

template <typename MsgT>
void encode_group(Writer& w, const spec::GroupEvent<MsgT>& event) {
  struct Visitor {
    Writer& w;
    void operator()(const spec::EvGpsnd<MsgT>& ev) const {
      w.u8(kTagGpsnd);
      w.process_id(ev.p);
      put_msg(w, ev.m);
    }
    void operator()(const spec::EvGprcv<MsgT>& ev) const {
      w.u8(kTagGprcv);
      w.process_id(ev.sender);
      w.process_id(ev.receiver);
      put_msg(w, ev.m);
    }
    void operator()(const spec::EvSafe<MsgT>& ev) const {
      w.u8(kTagSafe);
      w.process_id(ev.sender);
      w.process_id(ev.receiver);
      put_msg(w, ev.m);
    }
    void operator()(const spec::EvNewview& ev) const {
      w.u8(kTagNewview);
      w.process_id(ev.p);
      w.view(ev.v);
    }
    void operator()(const spec::EvRegister& ev) const {
      w.u8(kTagRegister);
      w.process_id(ev.p);
    }
  };
  std::visit(Visitor{w}, event);
}

template <typename MsgT>
spec::GroupEvent<MsgT> decode_group(Reader& r) {
  const std::uint8_t tag = r.u8();
  switch (tag) {
    case kTagGpsnd: {
      const ProcessId p = r.process_id();
      return spec::EvGpsnd<MsgT>{p, get_msg<MsgT>(r)};
    }
    case kTagGprcv: {
      const ProcessId sender = r.process_id();
      const ProcessId receiver = r.process_id();
      return spec::EvGprcv<MsgT>{sender, receiver, get_msg<MsgT>(r)};
    }
    case kTagSafe: {
      const ProcessId sender = r.process_id();
      const ProcessId receiver = r.process_id();
      return spec::EvSafe<MsgT>{sender, receiver, get_msg<MsgT>(r)};
    }
    case kTagNewview: {
      const ProcessId p = r.process_id();
      return spec::EvNewview{p, r.view()};
    }
    case kTagRegister:
      return spec::EvRegister{r.process_id()};
    default:
      throw DecodeError("unknown group-event tag " + std::to_string(tag));
  }
}

Bytes slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("trace: cannot open " + path);
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  Bytes bytes(raw.size());
  std::transform(raw.begin(), raw.end(), bytes.begin(),
                 [](char c) { return static_cast<std::byte>(c); });
  return bytes;
}

TraceMeta decode_meta(Reader& r) {
  TraceMeta meta;
  meta.ts_us = r.u64();
  meta.n = static_cast<std::size_t>(r.varuint());
  meta.initial_members = static_cast<std::size_t>(r.varuint());
  meta.self = r.process_id();
  // Pre-shard metas end here; sharded ones append the group id.
  if (!r.exhausted()) meta.group = static_cast<std::uint32_t>(r.varuint());
  return meta;
}

}  // namespace

void encode_event(Writer& w, const spec::VsEvent& event) {
  encode_group<Msg>(w, event);
}
void encode_event(Writer& w, const spec::DvsEvent& event) {
  encode_group<ClientMsg>(w, event);
}

void encode_event(Writer& w, const spec::ToEvent& event) {
  struct Visitor {
    Writer& w;
    void operator()(const spec::EvBcast& ev) const {
      w.u8(kTagBcast);
      w.process_id(ev.p);
      w.app_msg(ev.a);
    }
    void operator()(const spec::EvBrcv& ev) const {
      w.u8(kTagBrcv);
      w.process_id(ev.sender);
      w.process_id(ev.receiver);
      w.app_msg(ev.a);
    }
    void operator()(const spec::EvCrash& ev) const {
      w.u8(kTagCrash);
      w.process_id(ev.p);
    }
    void operator()(const spec::EvHandoff& ev) const {
      w.u8(kTagHandoff);
      w.process_id(ev.p);
      w.varuint(ev.next);
    }
  };
  std::visit(Visitor{w}, event);
}

spec::VsEvent decode_vs_event(Reader& r) { return decode_group<Msg>(r); }
spec::DvsEvent decode_dvs_event(Reader& r) {
  return decode_group<ClientMsg>(r);
}

spec::ToEvent decode_to_event(Reader& r) {
  const std::uint8_t tag = r.u8();
  switch (tag) {
    case kTagBcast: {
      const ProcessId p = r.process_id();
      return spec::EvBcast{p, r.app_msg()};
    }
    case kTagBrcv: {
      const ProcessId sender = r.process_id();
      const ProcessId receiver = r.process_id();
      return spec::EvBrcv{sender, receiver, r.app_msg()};
    }
    case kTagCrash:
      return spec::EvCrash{r.process_id()};
    case kTagHandoff: {
      const ProcessId p = r.process_id();
      return spec::EvHandoff{p, r.varuint()};
    }
    default:
      throw DecodeError("unknown TO-event tag " + std::to_string(tag));
  }
}

// ----- TraceSink ------------------------------------------------------------

std::string TraceSink::path_for(const std::string& trace_dir, ProcessId p) {
  return trace_dir + "/" + p.to_string() + ".trace";
}

std::string TraceSink::path_for(const std::string& trace_dir, ProcessId p,
                                std::uint32_t group) {
  if (group == 0) return path_for(trace_dir, p);
  return trace_dir + "/" + p.to_string() + ".g" + std::to_string(group) +
         ".trace";
}

TraceSink::TraceSink(std::string path, const TraceMeta& meta)
    : path_(std::move(path)) {
  namespace fs = std::filesystem;
  const fs::path p(path_);
  if (p.has_parent_path()) fs::create_directories(p.parent_path());
  // A SIGKILLed predecessor may have torn its last record; appending after
  // a torn tail would hide every later record from read_wal's clean-prefix
  // scan, so trim the file to the verified prefix first.
  if (fs::exists(p)) {
    const Bytes existing = slurp(path_);
    const storage::WalContents contents = storage::read_wal(existing);
    if (contents.bytes_consumed < existing.size()) {
      fs::resize_file(p, contents.bytes_consumed);
      trimmed_ = true;
    }
  }
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
               0644);
  if (fd_ < 0) throw std::runtime_error("trace: cannot append to " + path_);
  const TraceMeta m = meta;
  append(kTraceMeta, [&m](Writer& w) {
    w.u64(m.ts_us);
    w.varuint(m.n);
    w.varuint(m.initial_members);
    w.process_id(m.self);
    // Trailing group id only when sharded: unsharded files stay
    // byte-identical to the pre-shard format.
    if (m.group != 0) w.varuint(m.group);
  });
}

TraceSink::~TraceSink() {
  if (fd_ < 0) return;
  try {
    sync();
  } catch (const std::runtime_error&) {
    // A destructor has no one to report to; the records are lost exactly as
    // a crash here would lose them.
  }
  ::close(fd_);
}

void TraceSink::sync() {
  if (fd_ < 0 || pending_.empty()) return;
  const std::byte* p = pending_.data();
  std::size_t left = pending_.size();
  while (left > 0) {
    const ssize_t n = ::write(fd_, p, left);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) throw std::runtime_error("trace: write failed on " + path_);
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  pending_.clear();
}

void TraceSink::close() {
  if (fd_ < 0) return;
  sync();
  // The fsync makes the handed-off trace durable before the slot's new host
  // writes its own incarnation of the history.
  (void)::fsync(fd_);
  (void)::close(fd_);
  fd_ = -1;
}

void TraceSink::append(std::uint8_t type,
                       const std::function<void(Writer&)>& encode) {
  if (fd_ < 0) return;
  payload_.clear();
  encode(payload_);
  // Buffered until the next sync(): the daemon syncs before anything of
  // this wake leaves the process, so no observer can see an effect whose
  // record is still in memory.
  storage::append_frame(pending_, type, payload_.buffer().data(),
                        payload_.size());
  ++records_;
}

void TraceSink::record(std::uint64_t ts_us, const spec::VsEvent& event) {
  append(kTraceVs, [ts_us, &event](Writer& w) {
    w.u64(ts_us);
    encode_event(w, event);
  });
}

void TraceSink::record(std::uint64_t ts_us, const spec::DvsEvent& event) {
  append(kTraceDvs, [ts_us, &event](Writer& w) {
    w.u64(ts_us);
    encode_event(w, event);
  });
}

void TraceSink::record(std::uint64_t ts_us, const spec::ToEvent& event) {
  append(kTraceTo, [ts_us, &event](Writer& w) {
    w.u64(ts_us);
    encode_event(w, event);
  });
}

// ----- load side ------------------------------------------------------------

ProcessTrace load_trace_file(const std::string& path) {
  ProcessTrace trace;
  trace.path = path;
  const Bytes raw = slurp(path);
  const storage::WalContents contents = storage::read_wal(raw);
  trace.corrupt_tail = contents.corrupt_tail;
  for (const storage::WalRecord& rec : contents.records) {
    try {
      Reader r(rec.payload);
      if (rec.type == kTraceMeta) {
        trace.metas.push_back(decode_meta(r));
        r.expect_exhausted();
        continue;
      }
      TracedEvent ev;
      ev.ts_us = r.u64();
      ev.layer = rec.type;
      switch (rec.type) {
        case kTraceVs:
          ev.event = decode_vs_event(r);
          break;
        case kTraceDvs:
          ev.event = decode_dvs_event(r);
          break;
        case kTraceTo:
          ev.event = decode_to_event(r);
          break;
        default:
          ++trace.undecodable;  // unknown record type: skip, keep reading
          continue;
      }
      r.expect_exhausted();
      trace.events.push_back(std::move(ev));
    } catch (const DecodeError&) {
      ++trace.undecodable;
    }
  }
  return trace;
}

std::vector<ProcessTrace> load_trace_dir(const std::string& trace_dir) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(trace_dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".trace") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<ProcessTrace> traces;
  traces.reserve(paths.size());
  for (const std::string& p : paths) traces.push_back(load_trace_file(p));
  return traces;
}

}  // namespace dvs::daemon
