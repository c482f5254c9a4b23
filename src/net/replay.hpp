#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/capture.hpp"

namespace mpct::net {

/// Knobs of one replay run.
struct ReplayOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Ignore the recorded arrival gaps and send as fast as the socket
  /// accepts; default honours the recorded pacing.
  bool max_speed = false;
};

/// What a replay run observed.  `fingerprints` holds one entry per
/// answered request, sorted by request id, so two outcomes of the same
/// capture compare with ==.  Responses are fingerprinted *normalized*:
/// timing fields (latency), cache verdicts and trace ids are zeroed
/// before hashing, leaving exactly the semantic response — status code
/// and message plus the full decoded payload, re-encoded canonically.
struct ReplayOutcome {
  std::size_t sent = 0;
  std::size_t answered = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> fingerprints;
  std::string error;

  bool ok() const { return error.empty(); }
  /// Replays match when every request got the same semantic response.
  friend bool operator==(const ReplayOutcome& a, const ReplayOutcome& b) {
    return a.sent == b.sent && a.answered == b.answered &&
           a.fingerprints == b.fingerprints;
  }
};

/// Semantic hash of one response frame: decode, zero latency /
/// cache_hit / trace id, re-encode at the frame's own version, hash the
/// canonical bytes with service::FingerprintBuilder.  An undecodable frame hashes its raw bytes
/// (still deterministic, still comparable).  Exposed for tests and for
/// diffing saved fingerprint files.
std::uint64_t normalized_response_fingerprint(const std::uint8_t* frame,
                                              std::size_t frame_size);

/// Replay a recorded session against a live server: connect, send each
/// captured frame (honouring arrival gaps unless max_speed), collect
/// responses until every sent request is answered or the quiet period
/// expires.  The capture's own request ids travel unchanged, so
/// fingerprints line up across runs by construction.
ReplayOutcome replay_capture(const CaptureFile& capture,
                             const ReplayOptions& options);

}  // namespace mpct::net
