#include "vsys/wire.h"

#include <sstream>

namespace dvs::vsys {
namespace {

enum class Tag : std::uint8_t {
  kHeartbeat = 1,
  kPropose = 2,
  kFlushAck = 3,
  kInstall = 4,
  kData = 5,
  kSeq = 6,
  // 7 is retired (it was the token-ring frame) and stays unassigned, so a
  // datagram from an older build decodes to DecodeError, not to a
  // different frame.
  kWatermark = 8,
};

}  // namespace

Bytes encode(const WireMsg& m) {
  Writer w;
  encode_into(m, w);
  return w.take();
}

void encode_into(const WireMsg& m, Writer& w) {
  if (const auto* hb = std::get_if<Heartbeat>(&m)) {
    w.u8(static_cast<std::uint8_t>(Tag::kHeartbeat));
    w.u64(hb->max_epoch);
    w.u8(hb->view.has_value() ? 1 : 0);
    if (hb->view.has_value()) w.view_id(*hb->view);
    w.u64(hb->delivered);
    w.varuint(hb->safe);
  } else if (const auto* pr = std::get_if<Propose>(&m)) {
    w.u8(static_cast<std::uint8_t>(Tag::kPropose));
    w.view(pr->view);
  } else if (const auto* fa = std::get_if<FlushAck>(&m)) {
    w.u8(static_cast<std::uint8_t>(Tag::kFlushAck));
    w.view_id(fa->proposed);
  } else if (const auto* in = std::get_if<Install>(&m)) {
    w.u8(static_cast<std::uint8_t>(Tag::kInstall));
    w.view(in->view);
  } else if (const auto* da = std::get_if<Data>(&m)) {
    w.u8(static_cast<std::uint8_t>(Tag::kData));
    w.view_id(da->view);
    w.u64(da->sender_seq);
    w.varuint(da->wm_delivered);
    w.varuint(da->wm_safe);
    w.msg(da->payload);
  } else if (const auto* sq = std::get_if<Seq>(&m)) {
    w.u8(static_cast<std::uint8_t>(Tag::kSeq));
    w.view_id(sq->view);
    w.u64(sq->seqno);
    w.process_id(sq->origin);
    w.varuint(sq->wm_delivered);
    w.varuint(sq->wm_safe);
    w.msg(sq->payload);
  } else {
    const auto& wm = std::get<Watermark>(m);
    w.u8(static_cast<std::uint8_t>(Tag::kWatermark));
    w.view_id(wm.view);
    w.varuint(wm.delivered);
    w.varuint(wm.safe);
  }
}

WireMsg decode(const Bytes& data) {
  Reader r(data);
  WireMsg out = [&]() -> WireMsg {
    switch (static_cast<Tag>(r.u8())) {
      case Tag::kHeartbeat: {
        Heartbeat hb;
        hb.max_epoch = r.u64();
        if (r.u8() != 0) hb.view = r.view_id();
        hb.delivered = r.u64();
        hb.safe = r.varuint();
        return hb;
      }
      case Tag::kPropose:
        return Propose{r.view()};
      case Tag::kFlushAck:
        return FlushAck{r.view_id()};
      case Tag::kInstall:
        return Install{r.view()};
      case Tag::kData: {
        Data da;
        da.view = r.view_id();
        da.sender_seq = r.u64();
        da.wm_delivered = r.varuint();
        da.wm_safe = r.varuint();
        da.payload = r.msg();
        return da;
      }
      case Tag::kSeq: {
        Seq sq;
        sq.view = r.view_id();
        sq.seqno = r.u64();
        sq.origin = r.process_id();
        sq.wm_delivered = r.varuint();
        sq.wm_safe = r.varuint();
        sq.payload = r.msg();
        return sq;
      }
      case Tag::kWatermark: {
        Watermark wm;
        wm.view = r.view_id();
        wm.delivered = r.varuint();
        wm.safe = r.varuint();
        return wm;
      }
    }
    throw DecodeError("unknown vsys tag");
  }();
  r.expect_exhausted();
  return out;
}

void encode_group_frame(std::uint32_t group, const Bytes& payload, Writer& w) {
  w.u8(kGroupFrameTag);
  w.varuint(group);
  w.raw(payload.data(), payload.size());
}

bool looks_like_group_frame(const Bytes& data) {
  return !data.empty() &&
         static_cast<std::uint8_t>(data[0]) == kGroupFrameTag;
}

void decode_group_frame(const Bytes& data, GroupFrame& out) {
  Reader r(data);
  if (r.u8() != kGroupFrameTag) throw DecodeError("not a group frame");
  const std::uint64_t g = r.varuint();
  if (g > 0xFFFFFFFFull) throw DecodeError("group id out of range");
  out.group = static_cast<std::uint32_t>(g);
  out.payload.assign(data.end() - static_cast<std::ptrdiff_t>(r.remaining()),
                     data.end());
}

std::string to_string(const WireMsg& m) {
  std::ostringstream os;
  if (const auto* hb = std::get_if<Heartbeat>(&m)) {
    os << "heartbeat{epoch=" << hb->max_epoch;
    if (hb->view.has_value()) {
      os << ",view=" << hb->view->to_string() << ",delivered="
         << hb->delivered;
    }
    os << "}";
  } else if (const auto* pr = std::get_if<Propose>(&m)) {
    os << "propose{" << pr->view.to_string() << "}";
  } else if (const auto* fa = std::get_if<FlushAck>(&m)) {
    os << "flush-ack{" << fa->proposed.to_string() << "}";
  } else if (const auto* in = std::get_if<Install>(&m)) {
    os << "install{" << in->view.to_string() << "}";
  } else if (const auto* da = std::get_if<Data>(&m)) {
    os << "data{" << da->view.to_string() << ",#" << da->sender_seq << ","
       << dvs::to_string(da->payload) << "}";
  } else if (const auto* sq = std::get_if<Seq>(&m)) {
    os << "seq{" << sq->view.to_string() << ",#" << sq->seqno << ","
       << sq->origin.to_string() << "," << dvs::to_string(sq->payload) << "}";
  } else {
    const auto& wm = std::get<Watermark>(m);
    os << "watermark{" << wm.view.to_string() << ",delivered=" << wm.delivered
       << ",safe=" << wm.safe << "}";
  }
  return os.str();
}

}  // namespace dvs::vsys
