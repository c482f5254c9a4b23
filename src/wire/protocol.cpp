#include "wire/protocol.hpp"

#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>

#include "service/schema.hpp"

namespace mpct::wire {
namespace {

namespace schema = service::schema;

// ---------------------------------------------------------------------------
// The wire visitors of service/schema.hpp: every payload field below the
// frame level is written and read through its type's one field list.

/// An Encoder that writes through the schema.  It is the Encoder
/// rather than holding one, so the per-byte writes of a large payload
/// use the buffer directly instead of reloading a reference after every
/// byte store.
class Writer : public schema::Visitor<Writer>, public Encoder {
 public:
  static constexpr bool kReads = false;

  template <class T>
  void scalar(T value) {
    if constexpr (std::is_same_v<T, bool>) {
      boolean(value);
    } else if constexpr (std::is_same_v<T, double>) {
      f64(value);
    } else if constexpr (sizeof(T) == 1) {
      u8(static_cast<std::uint8_t>(value));
    } else if constexpr (sizeof(T) == 2) {
      u16(static_cast<std::uint16_t>(value));
    } else if constexpr (sizeof(T) == 4) {
      u32(static_cast<std::uint32_t>(value));
    } else {
      static_assert(sizeof(T) == 8);
      u64(static_cast<std::uint64_t>(value));
    }
  }
  template <class E>
  void enumeration(E value, schema::EnumRange) {
    u8(static_cast<std::uint8_t>(value));
  }
  void text(const std::string& text) { str(text); }
  template <class T>
  void optional(const std::optional<T>& value) {
    boolean(value.has_value());
    if (value) (*this)(*value);
  }
  template <class L>
  void list(const L& elements) {
    length(elements.size());
    for (const auto& element : elements) (*this)(element);
  }
  template <class... Ts>
  void variant(const std::variant<Ts...>& value) {
    u8(static_cast<std::uint8_t>(value.index()));
    std::visit([this](const auto& alternative) { (*this)(alternative); },
               value);
  }
};

/// A Decoder that reads through the schema (and, like Writer, is the
/// Decoder rather than holding one).  Errors latch exactly as the
/// Decoder's do: the first failure wins and every later read is a
/// no-op.  @p version is the frame's: a variant alternative newer than
/// it is Malformed rather than merely newer-than-us.
class Reader : public schema::Visitor<Reader>, public Decoder {
 public:
  static constexpr bool kReads = true;
  Reader(const std::uint8_t* data, const FrameHeader& header)
      : Decoder(data + header_size(header.version), header.payload_size),
        version_(header.version) {}

  using Decoder::fail;
  void fail(std::string message) {
    fail(WireErrorCode::Malformed, std::move(message));
  }

  template <class T>
  void scalar(T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      value = boolean();
    } else if constexpr (std::is_same_v<T, double>) {
      value = f64();
    } else if constexpr (sizeof(T) == 1) {
      value = static_cast<T>(u8());
    } else if constexpr (sizeof(T) == 2) {
      value = static_cast<T>(u16());
    } else if constexpr (sizeof(T) == 4) {
      value = static_cast<T>(u32());
    } else {
      value = static_cast<T>(u64());
    }
  }
  template <class E>
  void enumeration(E& value, schema::EnumRange range) {
    const std::uint8_t raw = u8();
    if (ok() && raw > range.max) {
      fail(std::string("bad ") + range.name + " value " +
           std::to_string(raw));
    }
    value = static_cast<E>(raw);
  }
  void text(std::string& text) { text = str(); }
  template <class T>
  void optional(std::optional<T>& value) {
    if (boolean()) (*this)(value.emplace());
  }
  template <class T>
  void list(std::vector<T>& elements) {
    const std::size_t count = length(schema::min_bytes<T>());
    elements.reserve(count);
    for (std::size_t i = 0; i < count && ok(); ++i) {
      // Decoded in a local first: stores into the vector could alias
      // the Decoder's own cursor and force a reload after every field.
      T element{};
      (*this)(element);
      elements.push_back(std::move(element));
    }
  }
  template <class... Ts>
  void variant(std::variant<Ts...>& value) {
    const std::uint8_t index = u8();
    if (!ok()) return;
    constexpr std::uint16_t since[] = {schema::kSinceVersion<Ts>...};
    if (index >= sizeof...(Ts) || version_ < since[index]) {
      fail(std::string("bad ") + schema::kVariantName<std::variant<Ts...>> +
           " alternative " + std::to_string(index) + " for version " +
           std::to_string(version_));
      return;
    }
    emplace(value, index, std::index_sequence_for<Ts...>{});
  }

 private:
  template <class Variant, std::size_t... I>
  void emplace(Variant& value, std::size_t index, std::index_sequence<I...>) {
    ((index == I ? (*this)(value.template emplace<I>()) : void()), ...);
  }

  std::uint16_t version_;
};

// ---------------------------------------------------------------------------
// Frames

constexpr std::size_t kPayloadSizeOffset = 16;

/// Bytes of kMagic in wire (little-endian) order — "MPCT".
constexpr std::uint8_t kMagicBytes[4] = {
    static_cast<std::uint8_t>(kMagic & 0xFF),
    static_cast<std::uint8_t>((kMagic >> 8) & 0xFF),
    static_cast<std::uint8_t>((kMagic >> 16) & 0xFF),
    static_cast<std::uint8_t>((kMagic >> 24) & 0xFF),
};

FrameScan bad_frame(WireErrorCode code, std::string message) {
  FrameScan scan;
  scan.state = FrameScan::State::Bad;
  scan.error = {code, std::move(message)};
  return scan;
}

/// Header, then @p body's payload, then the back-patched payload length.
template <class Body>
std::vector<std::uint8_t> encode_frame(FrameKind kind,
                                       std::uint64_t request_id,
                                       std::uint16_t version,
                                       std::uint64_t trace_id, Body&& body) {
  Writer w;
  w.u32(kMagic);
  w.u16(version);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u8(0);  // reserved
  w.u64(request_id);
  w.u32(0);  // payload size, back-patched below
  if (version >= 2) w.u64(trace_id);
  body(w);
  w.patch_u32(kPayloadSizeOffset,
              static_cast<std::uint32_t>(w.size() - header_size(version)));
  return w.take();
}

/// The preamble every decode_*_frame shares: @p data must be exactly one
/// well-formed frame of @p kind.  Returns its header, or fills @p error.
std::optional<FrameHeader> open_frame(const std::uint8_t* data,
                                      std::size_t size, FrameKind kind,
                                      WireError& error) {
  const FrameScan scan = scan_frame(data, size);
  if (scan.state == FrameScan::State::Bad) {
    error = scan.error;
  } else if (scan.state == FrameScan::State::NeedMore ||
             scan.frame_size != size) {
    error = {WireErrorCode::Truncated, "buffer is not exactly one frame"};
  } else if (scan.header.kind != kind) {
    error = {WireErrorCode::BadFrameKind,
             "expected frame kind " + std::to_string(static_cast<int>(kind)) +
                 ", got " + std::to_string(static_cast<int>(scan.header.kind))};
  } else {
    return scan.header;
  }
  return std::nullopt;
}

/// The payload must be fully consumed; the first latched error wins and
/// replaces the partly decoded value.
template <class Frame>
void finish(Decoder& d, DecodeResult<Frame>& result) {
  d.expect_end();
  if (d.ok()) return;
  result.value.reset();
  result.error = d.error();
}

}  // namespace

std::optional<std::uint16_t> negotiate_version(std::uint16_t client_min,
                                               std::uint16_t client_max) {
  const std::uint16_t lo =
      client_min > kMinProtocolVersion ? client_min : kMinProtocolVersion;
  const std::uint16_t hi =
      client_max < kProtocolVersion ? client_max : kProtocolVersion;
  if (lo > hi) return std::nullopt;
  return hi;
}

FrameScan scan_frame(const std::uint8_t* data, std::size_t size) {
  // Reject a wrong magic as early as the bytes allow: a stream that is
  // not frame-aligned should not be able to stall a reader by dribbling
  // garbage one byte at a time.
  const std::size_t magic_prefix = size < 4 ? size : 4;
  for (std::size_t i = 0; i < magic_prefix; ++i) {
    if (data[i] != kMagicBytes[i]) {
      return bad_frame(WireErrorCode::BadMagic,
                       "frame does not start with 'MPCT'");
    }
  }
  // The header size depends on the version field, so read (and reject)
  // that before demanding a full header's worth of bytes.
  if (size < 6) return {};  // NeedMore
  const std::uint16_t version = static_cast<std::uint16_t>(
      data[4] | (static_cast<std::uint16_t>(data[5]) << 8));
  if (version < kMinProtocolVersion || version > kProtocolVersion) {
    return bad_frame(WireErrorCode::UnsupportedVersion,
                     "frame version " + std::to_string(version) +
                         ", this build speaks " +
                         std::to_string(kMinProtocolVersion) + ".." +
                         std::to_string(kProtocolVersion));
  }
  const std::size_t header_bytes = header_size(version);
  if (size < header_bytes) return {};  // NeedMore

  Decoder d(data, header_bytes);
  d.u32();  // magic, validated above
  d.u16();  // version, validated above
  const std::uint8_t kind = d.u8();
  const std::uint8_t reserved = d.u8();
  const std::uint64_t request_id = d.u64();
  const std::uint32_t payload_size = d.u32();
  const std::uint64_t trace_id = version >= 2 ? d.u64() : 0;

  if (kind < static_cast<std::uint8_t>(FrameKind::Request) ||
      kind > static_cast<std::uint8_t>(FrameKind::CancelRequest)) {
    return bad_frame(WireErrorCode::BadFrameKind,
                     "frame kind byte " + std::to_string(kind));
  }
  if (kind == static_cast<std::uint8_t>(FrameKind::SpanBatch) && version < 2) {
    return bad_frame(WireErrorCode::BadFrameKind,
                     "span batch frames require a v2 header");
  }
  if (kind == static_cast<std::uint8_t>(FrameKind::CancelRequest) &&
      version < 2) {
    return bad_frame(WireErrorCode::BadFrameKind,
                     "cancel frames require a v2 header");
  }
  if (reserved != 0) {
    return bad_frame(WireErrorCode::Malformed,
                     "reserved header byte must be 0");
  }
  if (payload_size > kMaxPayloadBytes) {
    return bad_frame(WireErrorCode::Oversized,
                     "payload of " + std::to_string(payload_size) +
                         " bytes exceeds the " +
                         std::to_string(kMaxPayloadBytes) + " byte ceiling");
  }
  if (size < header_bytes + payload_size) return {};  // NeedMore

  FrameScan scan;
  scan.state = FrameScan::State::Ready;
  scan.header = {static_cast<FrameKind>(kind), version, request_id,
                 payload_size, trace_id};
  scan.frame_size = header_bytes + payload_size;
  return scan;
}


std::vector<std::uint8_t> encode_request_frame(
    std::uint64_t request_id, const service::Request& request,
    std::uint32_t deadline_ms, std::uint16_t version, std::uint64_t trace_id,
    std::optional<qos::PriorityClass> priority) {
  return encode_frame(
      FrameKind::Request, request_id, version, trace_id, [&](Writer& w) {
        w(deadline_ms, request);
        if (version >= 2) {
          // Trailing QoS extension: a single priority byte.  Decoders
          // treat its absence as "use the request type's default", so
          // pre-extension v2 peers interoperate unchanged.
          w.u8(static_cast<std::uint8_t>(
              priority.value_or(qos::default_priority(request))));
        }
      });
}

std::vector<std::uint8_t> encode_response_frame(
    std::uint64_t request_id, const service::QueryResponse& response,
    std::uint16_t version, std::uint64_t trace_id) {
  return encode_frame(
      FrameKind::Response, request_id, version, trace_id, [&](Writer& w) {
        w(response);
        if (version >= 2) {
          // Trailing QoS extension: one flags byte (bit 0 = sampled, i.e.
          // precision was shed) + the Overloaded retry-after hint in ms.
          // Absent on frames from pre-extension peers; decoders then
          // default to full precision and no hint.
          w.u8(response.sampled ? 1 : 0);
          w.u32(response.status.retry_after_ms);
        }
      });
}

std::vector<std::uint8_t> encode_ping_frame(std::uint64_t request_id) {
  return encode_frame(FrameKind::Ping, request_id, kProtocolVersion, 0,
                      [](Writer&) {});
}

std::vector<std::uint8_t> encode_pong_frame(std::uint64_t request_id) {
  return encode_frame(FrameKind::Pong, request_id, kProtocolVersion, 0,
                      [](Writer&) {});
}

std::vector<std::uint8_t> encode_hello_frame(std::uint64_t request_id,
                                             std::uint16_t min_version,
                                             std::uint16_t max_version) {
  // v1 header on purpose: the handshake that *selects* a version must be
  // readable at every version.
  return encode_frame(FrameKind::Hello, request_id, 1, 0,
                      [&](Writer& w) { w(min_version, max_version); });
}

std::vector<std::uint8_t> encode_hello_ack_frame(std::uint64_t request_id,
                                                 const service::Status& status,
                                                 std::uint16_t agreed_version) {
  return encode_frame(FrameKind::HelloAck, request_id, 1, 0,
                      [&](Writer& w) { w(status, agreed_version); });
}

std::vector<std::uint8_t> encode_cancel_frame(std::uint64_t request_id,
                                              std::uint64_t trace_id) {
  // Always a v2 header: cancellation is a v2 feature and scan_frame
  // rejects the kind at v1, so there is nothing to encode for v1 peers.
  return encode_frame(FrameKind::CancelRequest, request_id, kProtocolVersion,
                      trace_id, [](Writer&) {});
}

std::vector<std::uint8_t> encode_span_batch_frame(
    std::uint64_t request_id, const trace::SpanBatch& batch) {
  return encode_frame(FrameKind::SpanBatch, request_id, kProtocolVersion, 0,
                      [&](Writer& w) { w(batch); });
}

DecodeResult<RequestFrame> decode_request_frame(const std::uint8_t* data,
                                                std::size_t size) {
  DecodeResult<RequestFrame> result;
  const auto header = open_frame(data, size, FrameKind::Request, result.error);
  if (!header) return result;
  RequestFrame& frame = result.value.emplace();
  frame.request_id = header->request_id;
  frame.version = header->version;
  frame.trace_id = header->trace_id;
  Reader read(data, *header);
  read(frame.deadline_ms, frame.request);
  if (read.ok() && frame.version >= 2 && read.remaining() >= 1) {
    read(frame.priority);
  } else {
    // v1 frame, or a v2 client from before the QoS extension: the
    // request type's default class (test-enforced compatibility).
    frame.priority = qos::default_priority(frame.request);
  }
  finish(read, result);
  return result;
}

DecodeResult<ResponseFrame> decode_response_frame(const std::uint8_t* data,
                                                  std::size_t size) {
  DecodeResult<ResponseFrame> result;
  const auto header =
      open_frame(data, size, FrameKind::Response, result.error);
  if (!header) return result;
  ResponseFrame& frame = result.value.emplace();
  frame.request_id = header->request_id;
  frame.version = header->version;
  frame.trace_id = header->trace_id;
  Reader read(data, *header);
  read(frame.response);
  if (read.ok() && frame.version >= 2 && read.remaining() >= 5) {
    const std::uint8_t flags = read.u8();
    if (read.ok() && (flags & ~std::uint8_t{1}) != 0) {
      read.fail("bad qos flags byte " + std::to_string(flags));
    }
    frame.response.sampled = (flags & 1) != 0;
    frame.response.status.retry_after_ms = read.u32();
  }
  finish(read, result);
  return result;
}

DecodeResult<HelloFrame> decode_hello_frame(const std::uint8_t* data,
                                            std::size_t size) {
  DecodeResult<HelloFrame> result;
  const auto header = open_frame(data, size, FrameKind::Hello, result.error);
  if (!header) return result;
  HelloFrame& frame = result.value.emplace();
  frame.request_id = header->request_id;
  Reader read(data, *header);
  read(frame.min_version, frame.max_version);
  read.expect_end();
  if (read.ok() && frame.min_version > frame.max_version) {
    read.fail("Hello min_version above max_version");
  }
  finish(read, result);
  return result;
}

DecodeResult<HelloAckFrame> decode_hello_ack_frame(const std::uint8_t* data,
                                                   std::size_t size) {
  DecodeResult<HelloAckFrame> result;
  const auto header =
      open_frame(data, size, FrameKind::HelloAck, result.error);
  if (!header) return result;
  HelloAckFrame& frame = result.value.emplace();
  frame.request_id = header->request_id;
  Reader read(data, *header);
  read(frame.status, frame.agreed_version);
  finish(read, result);
  return result;
}

DecodeResult<CancelFrame> decode_cancel_frame(const std::uint8_t* data,
                                              std::size_t size) {
  DecodeResult<CancelFrame> result;
  const auto header =
      open_frame(data, size, FrameKind::CancelRequest, result.error);
  if (!header) return result;
  if (header->payload_size != 0) {
    result.error = {WireErrorCode::Malformed,
                    "cancel frames carry no payload"};
    return result;
  }
  result.value = CancelFrame{header->request_id, header->trace_id};
  return result;
}

DecodeResult<SpanBatchFrame> decode_span_batch_frame(const std::uint8_t* data,
                                                     std::size_t size) {
  DecodeResult<SpanBatchFrame> result;
  const auto header =
      open_frame(data, size, FrameKind::SpanBatch, result.error);
  if (!header) return result;
  SpanBatchFrame& frame = result.value.emplace();
  frame.request_id = header->request_id;
  Reader read(data, *header);
  read(frame.batch);
  finish(read, result);
  return result;
}

}  // namespace mpct::wire
