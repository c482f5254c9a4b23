#include "net/replay.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <set>
#include <thread>

#include "net/socket.hpp"
#include "service/fingerprint.hpp"
#include "wire/protocol.hpp"

namespace mpct::net {
/// Per-poll IO timeout and the overall quiet-period cutoff while
/// waiting for outstanding responses.
constexpr int kIoTimeoutMs = 5000;


std::uint64_t normalized_response_fingerprint(const std::uint8_t* frame,
                                              std::size_t frame_size) {
  const wire::DecodeResult<wire::ResponseFrame> decoded =
      wire::decode_response_frame(frame, frame_size);
  if (!decoded.ok()) {
    return service::FingerprintBuilder().mix_bytes(frame, frame_size).value();
  }
  wire::ResponseFrame normalized = *decoded.value;
  normalized.response.latency = std::chrono::nanoseconds{0};
  normalized.response.cache_hit = false;
  const std::vector<std::uint8_t> canonical = wire::encode_response_frame(
      normalized.request_id, normalized.response, normalized.version,
      /*trace_id=*/0);
  return service::FingerprintBuilder()
      .mix_bytes(canonical.data(), canonical.size())
      .value();
}

ReplayOutcome replay_capture(const CaptureFile& capture,
                             const ReplayOptions& options) {
  ReplayOutcome outcome;
  if (capture.records.empty()) return outcome;

  std::string connect_error;
  Socket socket = connect_tcp(options.host, options.port,
                              kIoTimeoutMs, connect_error);
  if (!socket.valid()) {
    outcome.error = "replay: " + connect_error;
    return outcome;
  }

  // Request ids we still expect a response for.  Ids come from the
  // capture verbatim; a capture with duplicate ids still terminates
  // (the set collapses them) but fingerprints then only keep the last
  // response per id.
  std::set<std::uint64_t> outstanding;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> fingerprints;
  std::vector<std::uint8_t> read_buffer;
  std::size_t next_record = 0;
  std::size_t write_offset = 0;  // within the current record's frame

  const auto drain_responses = [&](const std::uint8_t* data,
                                   std::size_t size) {
    read_buffer.insert(read_buffer.end(), data, data + size);
    std::size_t consumed = 0;
    for (;;) {
      const wire::FrameScan scan = wire::scan_frame(
          read_buffer.data() + consumed, read_buffer.size() - consumed);
      if (scan.state != wire::FrameScan::State::Ready) {
        if (scan.state == wire::FrameScan::State::Bad) {
          outcome.error = "replay: response stream broken: " +
                          scan.error.message;
        }
        break;
      }
      if (scan.header.kind == wire::FrameKind::Response) {
        const std::uint64_t id = scan.header.request_id;
        const std::uint64_t print = normalized_response_fingerprint(
            read_buffer.data() + consumed, scan.frame_size);
        fingerprints.emplace_back(id, print);
        ++outcome.answered;
        outstanding.erase(id);
      }
      consumed += scan.frame_size;
    }
    if (consumed > 0) {
      read_buffer.erase(read_buffer.begin(),
                        read_buffer.begin() +
                            static_cast<std::ptrdiff_t>(consumed));
    }
  };

  auto last_progress = std::chrono::steady_clock::now();
  while (outcome.error.empty() &&
         (next_record < capture.records.size() || !outstanding.empty())) {
    // Pace the next frame: honour the recorded arrival gap once the
    // previous frame is fully on the wire.
    if (next_record < capture.records.size() && write_offset == 0 &&
        !options.max_speed) {
      const std::uint32_t delta = capture.records[next_record].delta_us;
      if (delta > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(delta));
      }
    }

    pollfd pfd{};
    pfd.fd = socket.fd();
    pfd.events = POLLIN;
    if (next_record < capture.records.size()) pfd.events |= POLLOUT;
    const int ready = ::poll(&pfd, 1, kIoTimeoutMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      outcome.error = "replay: poll failed";
      break;
    }
    if (ready == 0) {
      outcome.error = "replay: timed out with " +
                      std::to_string(outstanding.size()) +
                      " responses outstanding";
      break;
    }

    if (pfd.revents & POLLIN) {
      std::uint8_t chunk[16384];
      const ssize_t got = ::read(socket.fd(), chunk, sizeof(chunk));
      if (got > 0) {
        drain_responses(chunk, static_cast<std::size_t>(got));
        last_progress = std::chrono::steady_clock::now();
      } else if (got == 0) {
        outcome.error = "replay: server closed the connection with " +
                        std::to_string(outstanding.size()) +
                        " responses outstanding";
        break;
      } else if (errno != EAGAIN && errno != EWOULDBLOCK &&
                 errno != EINTR) {
        outcome.error = "replay: read failed";
        break;
      }
    }

    if ((pfd.revents & POLLOUT) && next_record < capture.records.size()) {
      const std::vector<std::uint8_t>& frame =
          capture.records[next_record].frame;
      const ssize_t sent = ::write(socket.fd(), frame.data() + write_offset,
                                   frame.size() - write_offset);
      if (sent > 0) {
        write_offset += static_cast<std::size_t>(sent);
        last_progress = std::chrono::steady_clock::now();
        if (write_offset == frame.size()) {
          const wire::FrameScan scan =
              wire::scan_frame(frame.data(), frame.size());
          if (scan.state == wire::FrameScan::State::Ready &&
              scan.header.kind == wire::FrameKind::Request) {
            outstanding.insert(scan.header.request_id);
          }
          ++outcome.sent;
          ++next_record;
          write_offset = 0;
        }
      } else if (sent < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                 errno != EINTR) {
        outcome.error = "replay: write failed";
        break;
      }
    }

    if (pfd.revents & (POLLERR | POLLHUP) && !(pfd.revents & POLLIN)) {
      outcome.error = "replay: connection lost";
      break;
    }

    // Defensive cutoff: poll kept returning readable/writable without
    // any bytes moving (shouldn't happen, but never spin forever).
    if (std::chrono::steady_clock::now() - last_progress >
        std::chrono::milliseconds(kIoTimeoutMs)) {
      outcome.error = "replay: no progress within the io timeout";
      break;
    }
  }

  // Fingerprints sorted by (id, hash); duplicate ids collapse to one
  // deterministic entry, so two runs of the same capture compare with ==.
  std::sort(fingerprints.begin(), fingerprints.end());
  fingerprints.erase(
      std::unique(fingerprints.begin(), fingerprints.end(),
                  [](const auto& a, const auto& b) { return a.first == b.first; }),
      fingerprints.end());
  outcome.fingerprints = std::move(fingerprints);
  return outcome;
}

}  // namespace mpct::net
