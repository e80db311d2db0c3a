#include "svc/frame.h"

#include <cstring>

#include "core/protocol.h"
#include "mon/metric.h"

namespace ioc::svc {

namespace {

// --- little-endian append helpers ------------------------------------------

void put_u8(std::string* out, std::uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void put_u16(std::string* out, std::uint16_t v) {
  for (int i = 0; i < 2; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void put_u32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void put_u64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void put_f64(std::string* out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

void put_i64(std::string* out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_str(std::string* out, std::string_view s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out->append(s);
}

void put_nodes(std::string* out, const std::vector<net::NodeId>& nodes) {
  put_u32(out, static_cast<std::uint32_t>(nodes.size()));
  for (const net::NodeId n : nodes) put_u32(out, n);
}

void put_report(std::string* out, const core::ProtocolReport& r) {
  put_str(out, r.action);
  put_str(out, r.container);
  put_i64(out, r.delta);
  put_i64(out, r.total);
  put_i64(out, r.gm_cm_messaging);
  put_i64(out, r.aprun);
  put_i64(out, r.metadata_exchange);
  put_i64(out, r.pause_wait);
  put_i64(out, r.endpoint_update);
  put_i64(out, r.state_migration);
  put_u64(out, r.metadata_messages);
  put_u8(out, r.ok ? 1 : 0);
}

// --- bounds-checked reader --------------------------------------------------

struct Reader {
  const unsigned char* p;
  std::size_t left;
  bool ok = true;

  bool take(std::size_t n) {
    if (!ok || left < n) {
      ok = false;
      return false;
    }
    return true;
  }
  std::uint8_t u8() {
    if (!take(1)) return 0;
    const std::uint8_t v = p[0];
    p += 1;
    left -= 1;
    return v;
  }
  std::uint16_t u16() {
    if (!take(2)) return 0;
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i) v |= static_cast<std::uint16_t>(p[i]) << (8 * i);
    p += 2;
    left -= 2;
    return v;
  }
  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    p += 4;
    left -= 4;
    return v;
  }
  std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    p += 8;
    left -= 8;
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::string str() {
    const std::uint32_t n = u32();
    if (!take(n)) return {};
    std::string s(reinterpret_cast<const char*>(p), n);
    p += n;
    left -= n;
    return s;
  }
  std::vector<net::NodeId> nodes() {
    const std::uint32_t n = u32();
    std::vector<net::NodeId> out;
    if (!take(static_cast<std::size_t>(n) * 4)) return out;
    out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      std::uint32_t v = 0;
      for (int b = 0; b < 4; ++b) v |= static_cast<std::uint32_t>(p[b]) << (8 * b);
      p += 4;
      left -= 4;
      out.push_back(v);
    }
    return out;
  }
  core::ProtocolReport report() {
    core::ProtocolReport r;
    r.action = str();
    r.container = str();
    r.delta = static_cast<int>(i64());
    r.total = i64();
    r.gm_cm_messaging = i64();
    r.aprun = i64();
    r.metadata_exchange = i64();
    r.pause_wait = i64();
    r.endpoint_update = i64();
    r.state_migration = i64();
    r.metadata_messages = u64();
    r.ok = u8() != 0;
    return r;
  }
};

void encode_payload(const ev::Payload& p, std::string* out) {
  if (!p.has_value()) {
    put_u8(out, static_cast<std::uint8_t>(PayloadTag::kNone));
    return;
  }
  if (const auto* v = p.as<core::IncreasePayload>()) {
    put_u8(out, static_cast<std::uint8_t>(PayloadTag::kIncrease));
    put_nodes(out, v->nodes);
    return;
  }
  if (const auto* v = p.as<core::DecreasePayload>()) {
    put_u8(out, static_cast<std::uint8_t>(PayloadTag::kDecrease));
    put_u32(out, v->count);
    return;
  }
  if (const auto* v = p.as<core::DonePayload>()) {
    put_u8(out, static_cast<std::uint8_t>(PayloadTag::kDone));
    put_report(out, v->report);
    put_nodes(out, v->freed_nodes);
    return;
  }
  if (const auto* v = p.as<core::NeedsPayload>()) {
    put_u8(out, static_cast<std::uint8_t>(PayloadTag::kNeeds));
    put_u32(out, v->extra_nodes);
    put_f64(out, v->predicted_latency);
    return;
  }
  if (const auto* v = p.as<core::EnableHashesPayload>()) {
    put_u8(out, static_cast<std::uint8_t>(PayloadTag::kEnableHashes));
    put_u8(out, v->enabled ? 1 : 0);
    return;
  }
  if (const auto* v = p.as<core::SwitchToDiskPayload>()) {
    put_u8(out, static_cast<std::uint8_t>(PayloadTag::kSwitchToDisk));
    put_str(out, v->provenance);
    put_str(out, v->pending);
    return;
  }
  if (const auto* v = p.as<mon::MetricSample>()) {
    put_u8(out, static_cast<std::uint8_t>(PayloadTag::kMetric));
    put_str(out, v->source);
    put_u8(out, static_cast<std::uint8_t>(v->kind));
    put_u64(out, v->step);
    put_f64(out, v->value);
    put_i64(out, v->at);
    return;
  }
  // A payload type the codec does not know cannot cross the wire; sending
  // the message without it is strictly better than sending garbage — the
  // receiver's `as<T>()` already treats an absent payload as "use defaults"
  // on every decode site.
  put_u8(out, static_cast<std::uint8_t>(PayloadTag::kNone));
}

bool decode_payload(Reader* r, ev::Payload* out, std::string* error) {
  const auto tag = static_cast<PayloadTag>(r->u8());
  switch (tag) {
    case PayloadTag::kNone:
      break;
    case PayloadTag::kIncrease: {
      core::IncreasePayload v;
      v.nodes = r->nodes();
      *out = std::move(v);
      break;
    }
    case PayloadTag::kDecrease: {
      core::DecreasePayload v;
      v.count = r->u32();
      *out = v;
      break;
    }
    case PayloadTag::kDone: {
      core::DonePayload v;
      v.report = r->report();
      v.freed_nodes = r->nodes();
      *out = std::move(v);
      break;
    }
    case PayloadTag::kNeeds: {
      core::NeedsPayload v;
      v.extra_nodes = r->u32();
      v.predicted_latency = r->f64();
      *out = v;
      break;
    }
    case PayloadTag::kEnableHashes: {
      core::EnableHashesPayload v;
      v.enabled = r->u8() != 0;
      *out = v;
      break;
    }
    case PayloadTag::kSwitchToDisk: {
      core::SwitchToDiskPayload v;
      v.provenance = r->str();
      v.pending = r->str();
      *out = std::move(v);
      break;
    }
    case PayloadTag::kMetric: {
      mon::MetricSample v;
      v.source = r->str();
      v.kind = static_cast<mon::MetricKind>(r->u8());
      v.step = r->u64();
      v.value = r->f64();
      v.at = r->i64();
      *out = std::move(v);
      break;
    }
    default:
      if (error != nullptr) *error = "unknown payload tag";
      return false;
  }
  if (!r->ok) {
    if (error != nullptr) *error = "short payload body";
    return false;
  }
  return true;
}

}  // namespace

void encode_frame(const WireFrame& f, std::string* out) {
  const std::size_t len_at = out->size();
  put_u32(out, 0);  // patched below
  put_u64(out, f.seq);
  put_u8(out, f.traffic_class);
  put_u32(out, f.msg.from);
  put_u32(out, f.msg.to);
  put_u64(out, f.msg.token);
  put_u64(out, f.msg.size_bytes);
  const std::string_view type = f.msg.type();
  put_u16(out, static_cast<std::uint16_t>(type.size()));
  out->append(type);
  encode_payload(f.msg.payload, out);
  const std::uint32_t body =
      static_cast<std::uint32_t>(out->size() - len_at - 4);
  for (int i = 0; i < 4; ++i) {
    (*out)[len_at + i] = static_cast<char>((body >> (8 * i)) & 0xFF);
  }
}

int try_decode(std::string_view buf, WireFrame* out, std::string* error) {
  if (buf.size() < 4) return 0;
  const auto* u = reinterpret_cast<const unsigned char*>(buf.data());
  std::uint32_t body = 0;
  for (int i = 0; i < 4; ++i) body |= static_cast<std::uint32_t>(u[i]) << (8 * i);
  if (body > kMaxFrameBytes) {
    if (error != nullptr) *error = "frame length exceeds kMaxFrameBytes";
    return -1;
  }
  if (buf.size() < 4 + static_cast<std::size_t>(body)) return 0;
  Reader r{u + 4, body};
  out->seq = r.u64();
  out->traffic_class = r.u8();
  out->msg.from = r.u32();
  out->msg.to = r.u32();
  out->msg.token = r.u64();
  out->msg.size_bytes = r.u64();
  const std::uint16_t type_len = r.u16();
  if (!r.ok || r.left < type_len) {
    if (error != nullptr) *error = "short frame header";
    return -1;
  }
  // Lookup only: every legitimate sender interned its type before encoding,
  // and interning wire bytes would let a peer grow the table without bound.
  const auto type = ev::find_type(
      std::string_view(reinterpret_cast<const char*>(r.p), type_len));
  if (!type.has_value()) {
    if (error != nullptr) *error = "unknown message type";
    return -1;
  }
  out->msg.type_id = *type;
  r.p += type_len;
  r.left -= type_len;
  out->msg.payload.reset();
  if (!decode_payload(&r, &out->msg.payload, error)) return -1;
  if (r.left != 0) {
    if (error != nullptr) *error = "trailing bytes in frame body";
    return -1;
  }
  return static_cast<int>(4 + body);
}

}  // namespace ioc::svc
