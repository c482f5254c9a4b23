#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hpp"
#include "service/metrics.hpp"
#include "trace/export.hpp"
#include "trace/sampler.hpp"

namespace mpct::net {

/// Tuning knobs of a TraceStreamer.
struct TraceStreamerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< collector server port
  /// Stable process name stamped on every batch; the collector keys
  /// clock alignment and timeline pids on it ("backend-0", "proxy").
  std::string node = "node";
  trace::SamplerPolicy policy = trace::SamplerPolicy::always();
  /// Drain cadence.  Shorter = fresher collector view; the per-tick
  /// cost is one registry walk regardless.
  std::chrono::milliseconds interval{50};
  /// Unsent encoded bytes the streamer will hold while the collector
  /// is slow; beyond this, whole batches are shed (drop-counted).
  /// This is the back-pressure bound — memory never grows past it.
  std::size_t max_outbox_bytes = 1u << 20;
  std::chrono::milliseconds connect_timeout{2000};
  /// Optional registry for the trace_* block.  May be null.
  service::MetricsRegistry* metrics = nullptr;
};

/// Streaming flight-recorder exporter: a background thread drains the
/// process's Tracer rings (Tracer::drain — the exporter-owned cursor,
/// never the snapshot path), head/tail-samples the spans, and ships
/// them to a collector as SpanBatch frames over one TCP connection.
///
/// The recording hot path never sees this class: recorders keep writing
/// lock-free rings, and a wedged collector costs them nothing — the
/// streamer sheds batches once its outbox bound is hit, counting every
/// dropped span, and keeps trying.  Socket writes are nonblocking; the
/// thread never parks on send().
///
/// Ownership: exactly one TraceStreamer per process (Tracer::drain is
/// single-consumer).  stop() performs a final drain and bounded flush,
/// so short-lived processes still deliver their tail.
class TraceStreamer {
 public:
  explicit TraceStreamer(TraceStreamerOptions options);
  ~TraceStreamer();

  TraceStreamer(const TraceStreamer&) = delete;
  TraceStreamer& operator=(const TraceStreamer&) = delete;

  /// Connect and launch the export thread.  False + error() when the
  /// collector cannot be reached (the caller decides whether that is
  /// fatal; tracing itself is unaffected).
  bool start();

  /// Final drain + bounded flush (~drain one interval's worth), then
  /// join.  Idempotent; called by the destructor.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  const std::string& error() const { return error_; }
  const TraceStreamerOptions& options() const { return options_; }

  // Lifetime counters (mirrored into metrics when a registry is set).
  std::uint64_t spans_exported() const {
    return spans_exported_.load(std::memory_order_relaxed);
  }
  std::uint64_t spans_dropped() const {
    return spans_dropped_.load(std::memory_order_relaxed);
  }
  std::uint64_t spans_sampled_out() const {
    return spans_sampled_out_.load(std::memory_order_relaxed);
  }
  std::uint64_t batches_sent() const {
    return batches_sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t batches_dropped() const {
    return batches_dropped_.load(std::memory_order_relaxed);
  }

 private:
  void run();
  /// One export tick: drain, sample, encode, enqueue-or-shed, flush.
  void pump(bool final_tick);
  /// Nonblocking flush of the outbox; @p wait_ms bounds one poll.
  void flush(int wait_ms);

  TraceStreamerOptions options_;
  trace::ExportFilter filter_;
  Socket socket_;
  std::string error_;

  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  /// Encoded-but-unsent frame bytes (export thread only).
  std::vector<std::uint8_t> outbox_;
  std::size_t outbox_offset_ = 0;
  /// Connection died mid-stream: shed everything from here on.
  bool dead_ = false;
  std::uint64_t next_batch_id_ = 1;
  /// Losses to report in the next batch's `dropped` field: ring wrap
  /// past the cursor plus spans in shed batches.
  std::uint64_t pending_dropped_ = 0;

  std::atomic<std::uint64_t> spans_exported_{0};
  std::atomic<std::uint64_t> spans_dropped_{0};
  std::atomic<std::uint64_t> spans_sampled_out_{0};
  std::atomic<std::uint64_t> batches_sent_{0};
  std::atomic<std::uint64_t> batches_dropped_{0};
};

}  // namespace mpct::net
