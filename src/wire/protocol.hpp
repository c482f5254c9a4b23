#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "qos/priority.hpp"
#include "service/request.hpp"
#include "trace/export.hpp"
#include "wire/codec.hpp"

namespace mpct::wire {

/// "MPCT" as the first four bytes of every frame (the value below is
/// that byte sequence read as a little-endian u32).
inline constexpr std::uint32_t kMagic = 0x5443504Du;

/// Bumped on any incompatible change to the frame header or payload
/// encodings.  A decoder rejects frames from a version it does not
/// speak with WireErrorCode::UnsupportedVersion — see the versioning
/// policy in docs/NET.md.
///
/// v2 (current): appends a 64-bit trace id to the header and adds the
/// control frame kinds (Ping/Pong/Hello/HelloAck) plus the chunked
/// sweep request/response payloads used by the cluster tier.
inline constexpr std::uint16_t kProtocolVersion = 2;

/// Oldest version this build still decodes.  A v1 client talking to a
/// v2 server keeps working: the server answers each frame at the
/// version the frame arrived with.
inline constexpr std::uint16_t kMinProtocolVersion = 1;

/// Frame-header layout.  Offsets shared by both versions:
///
///   offset  size  field
///        0     4  magic ("MPCT")
///        4     2  protocol version
///        6     1  frame kind (see FrameKind)
///        7     1  reserved (must be 0)
///        8     8  request id (client-chosen; responses echo it, which
///                 is what makes pipelined/out-of-order completion work)
///       16     4  payload byte length
///
/// A v1 header ends there (20 bytes).  A v2 header appends:
///
///       20     8  trace id (0 = untraced); responses echo the
///                 request's, so one distributed trace can stitch
///                 client and server spans together
///
/// and the payload follows the header either way.
inline constexpr std::size_t kHeaderSizeV1 = 20;
inline constexpr std::size_t kHeaderSizeV2 = 28;

/// Header size of a current-version (v2) frame — what this build's
/// encode_*_frame helpers emit by default.
inline constexpr std::size_t kHeaderSize = kHeaderSizeV2;

constexpr std::size_t header_size(std::uint16_t version) {
  return version >= 2 ? kHeaderSizeV2 : kHeaderSizeV1;
}

/// Hard payload ceiling.  A frame announcing more than this is rejected
/// before any allocation — the stream is treated as garbage.
inline constexpr std::size_t kMaxPayloadBytes = service::kMaxPayloadBytes;

enum class FrameKind : std::uint8_t {
  Request = 1,
  Response = 2,
  /// Liveness probe (empty payload); the peer answers Pong echoing the
  /// request id.  Drives the cluster health state machine.
  Ping = 3,
  Pong = 4,
  /// Version negotiation.  A client opens with Hello advertising its
  /// [min, max] version range; the server answers HelloAck with the
  /// agreed version (the highest both speak) or an UnsupportedVersion
  /// status.  Hello/HelloAck always travel with a v1 header so the
  /// handshake itself is readable by every version.
  Hello = 5,
  HelloAck = 6,
  /// One flight-recorder span batch streamed at a trace collector
  /// (fire-and-forget: no response frame — back-pressure is TCP flow
  /// control, and a sender that cannot write sheds batches locally,
  /// counting the drop).  v2-only; a v1 header carrying this kind is
  /// rejected by scan_frame.
  SpanBatch = 7,
  /// Server-side cancellation: the header's request id names an earlier
  /// request on the *same connection* that the client no longer wants
  /// (typically a hedged duplicate whose sibling already answered).
  /// Empty payload, fire-and-forget — the cancelled request's own
  /// response (Cancelled if the cancel won the race, the real result if
  /// it lost) is the acknowledgement.  v2-only; a v1 header carrying
  /// this kind is rejected by scan_frame.
  CancelRequest = 8,
};

struct FrameHeader {
  FrameKind kind = FrameKind::Request;
  std::uint16_t version = kProtocolVersion;
  std::uint64_t request_id = 0;
  std::uint32_t payload_size = 0;
  std::uint64_t trace_id = 0;  ///< always 0 on v1 frames
};

/// Pick the version a server should answer a Hello with: the highest
/// version both sides speak, or nullopt when the ranges do not
/// intersect (→ answer with Status::unsupported_version).
std::optional<std::uint16_t> negotiate_version(std::uint16_t client_min,
                                               std::uint16_t client_max);

/// Outcome of scanning a stream buffer for one complete frame.
struct FrameScan {
  enum class State {
    NeedMore,  ///< prefix is consistent but incomplete — read more bytes
    Ready,     ///< one complete frame of frame_size bytes is available
    Bad,       ///< stream is not a valid frame; see error
  };
  State state = State::NeedMore;
  FrameHeader header;          ///< valid when Ready
  std::size_t frame_size = 0;  ///< header + payload bytes, valid when Ready
  WireError error;             ///< valid when Bad
};

/// Scan the first bytes of @p data for one frame.  Never reads past
/// @p size, never allocates; a malformed header (bad magic / version /
/// kind / oversized payload) is Bad, an incomplete one NeedMore.
FrameScan scan_frame(const std::uint8_t* data, std::size_t size);

/// A decoded request frame.  `deadline_ms` is the client's remaining
/// deadline budget in milliseconds at send time (deadlines are relative
/// on the wire — absolute steady_clock points do not cross machines);
/// 0 means no deadline.
struct RequestFrame {
  std::uint64_t request_id = 0;
  std::uint32_t deadline_ms = 0;
  service::Request request;
  std::uint16_t version = kProtocolVersion;  ///< version the frame arrived at
  std::uint64_t trace_id = 0;                ///< 0 on v1 frames / untraced
  /// QoS class, carried as a single byte appended to the v2 payload.
  /// v1 frames — and v2 frames from clients that predate the extension
  /// — decode to the request type's default class (point queries
  /// Interactive, grid work Batch), so an unaware client is never
  /// penalised for not sending the byte.
  qos::PriorityClass priority = qos::PriorityClass::Interactive;
};

/// A decoded response frame.  `response.latency` is the server-observed
/// submit-to-completion time; `cache_hit` is the server cache verdict.
struct ResponseFrame {
  std::uint64_t request_id = 0;
  service::QueryResponse response;
  std::uint16_t version = kProtocolVersion;
  std::uint64_t trace_id = 0;
};

/// A decoded Hello (version negotiation opener).
struct HelloFrame {
  std::uint64_t request_id = 0;
  std::uint16_t min_version = kMinProtocolVersion;
  std::uint16_t max_version = kProtocolVersion;
};

/// A decoded HelloAck.  `agreed_version` is meaningful only when
/// `status.ok()`; on UnsupportedVersion it echoes the server's max.
struct HelloAckFrame {
  std::uint64_t request_id = 0;
  service::Status status;
  std::uint16_t agreed_version = kProtocolVersion;
};

/// A decoded CancelRequest.  The request id names the request to
/// cancel on this connection; there is no payload.
struct CancelFrame {
  std::uint64_t request_id = 0;
  std::uint64_t trace_id = 0;
};

/// A decoded span batch (streaming flight-recorder export).  The
/// request id is a sender-local batch sequence number — useful in a
/// packet dump, never echoed (span batches have no responses).
struct SpanBatchFrame {
  std::uint64_t request_id = 0;
  trace::SpanBatch batch;
};

/// Decode outcome: either a value or a typed error, never both.
template <typename T>
struct DecodeResult {
  std::optional<T> value;
  WireError error;

  bool ok() const { return value.has_value(); }
};

/// Encode one complete request frame (header + payload) at @p version.
/// Chunk requests (SweepChunk/FaultChunk) exist only at v2+; encoding
/// one at v1 produces a frame any compliant decoder rejects, so don't.
/// @p priority defaults to the request type's class
/// (qos::default_priority); pass one explicitly to override — e.g. a
/// replay soak tags everything Background.  v1 frames cannot carry the
/// byte, so an explicit priority is silently dropped at version 1.
std::vector<std::uint8_t> encode_request_frame(
    std::uint64_t request_id, const service::Request& request,
    std::uint32_t deadline_ms = 0, std::uint16_t version = kProtocolVersion,
    std::uint64_t trace_id = 0,
    std::optional<qos::PriorityClass> priority = std::nullopt);

/// Encode one complete response frame (header + payload) at @p version.
/// Covers every Status (error responses travel exactly like results)
/// and every ResponsePayload alternative.  Servers answer at the
/// version the request frame arrived with.
std::vector<std::uint8_t> encode_response_frame(
    std::uint64_t request_id, const service::QueryResponse& response,
    std::uint16_t version = kProtocolVersion, std::uint64_t trace_id = 0);

/// Control frames.  Ping/Pong carry an empty payload; Hello/HelloAck
/// always travel with a v1 header (see FrameKind::Hello).
std::vector<std::uint8_t> encode_ping_frame(std::uint64_t request_id);
std::vector<std::uint8_t> encode_pong_frame(std::uint64_t request_id);
std::vector<std::uint8_t> encode_hello_frame(std::uint64_t request_id,
                                             std::uint16_t min_version,
                                             std::uint16_t max_version);
std::vector<std::uint8_t> encode_hello_ack_frame(std::uint64_t request_id,
                                                 const service::Status& status,
                                                 std::uint16_t agreed_version);

/// Encode one CancelRequest (always a v2 header — cancellation does
/// not exist at v1; a client that negotiated v1 simply never sends
/// one).  Empty payload; the header's request id is the target.
std::vector<std::uint8_t> encode_cancel_frame(std::uint64_t request_id,
                                              std::uint64_t trace_id = 0);

/// Encode one span batch (always a v2 header; the streamer never talks
/// to v1 peers — negotiation happens before streaming starts).
std::vector<std::uint8_t> encode_span_batch_frame(
    std::uint64_t request_id, const trace::SpanBatch& batch);

/// Decode a complete frame previously delimited by scan_frame().
/// @p size must be the exact frame size; trailing bytes are an error.
DecodeResult<RequestFrame> decode_request_frame(const std::uint8_t* data,
                                                std::size_t size);
DecodeResult<ResponseFrame> decode_response_frame(const std::uint8_t* data,
                                                  std::size_t size);
DecodeResult<HelloFrame> decode_hello_frame(const std::uint8_t* data,
                                            std::size_t size);
DecodeResult<HelloAckFrame> decode_hello_ack_frame(const std::uint8_t* data,
                                                   std::size_t size);
DecodeResult<SpanBatchFrame> decode_span_batch_frame(const std::uint8_t* data,
                                                     std::size_t size);
DecodeResult<CancelFrame> decode_cancel_frame(const std::uint8_t* data,
                                              std::size_t size);

}  // namespace mpct::wire
