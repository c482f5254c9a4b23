#include "net/trace_stream.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>

#include <utility>

#include "wire/protocol.hpp"

namespace mpct::net {
/// Spans per SpanBatch frame; bigger drains split into several.
constexpr std::size_t kMaxSpansPerBatch = 2048;


TraceStreamer::TraceStreamer(TraceStreamerOptions options)
    : options_(std::move(options)), filter_(options_.policy) {}

TraceStreamer::~TraceStreamer() { stop(); }

bool TraceStreamer::start() {
  if (running_.load(std::memory_order_acquire)) return true;
  error_.clear();
  stopping_.store(false, std::memory_order_release);
  socket_ = connect_tcp(options_.host, options_.port,
                        static_cast<int>(options_.connect_timeout.count()),
                        error_);
  if (!socket_.valid()) return false;
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { run(); });
  return true;
}

void TraceStreamer::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
  socket_.close();
}

void TraceStreamer::run() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pump(false);
    // Sleep in small slices so stop() stays responsive at any interval.
    auto remaining = options_.interval;
    const auto slice = std::chrono::milliseconds(10);
    while (remaining.count() > 0 &&
           !stopping_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(remaining < slice ? remaining : slice);
      remaining -= slice;
    }
  }
  // Final tick: ship whatever the rings still hold, with a bounded
  // blocking flush so short-lived processes deliver their tail.
  pump(true);
}

void TraceStreamer::pump(bool final_tick) {
  trace::Tracer::DrainResult drained = trace::Tracer::instance().drain();
  pending_dropped_ += drained.dropped;
  if (drained.dropped > 0) {
    // Ring wrap past the export cursor: real losses, same counter as
    // shed batches so drop accounting reads as one number.
    spans_dropped_.fetch_add(drained.dropped, std::memory_order_relaxed);
    if (options_.metrics != nullptr) {
      options_.metrics->trace_spans_dropped.add(drained.dropped);
    }
  }
  std::vector<trace::ExportSpan> kept = filter_.apply(drained.spans);
  const std::uint64_t sampled_total = filter_.sampled_out();
  const std::uint64_t sampled_prev =
      spans_sampled_out_.exchange(sampled_total, std::memory_order_relaxed);
  if (options_.metrics != nullptr && sampled_total > sampled_prev) {
    options_.metrics->trace_spans_sampled_out.add(sampled_total -
                                                  sampled_prev);
  }

  std::size_t offset = 0;
  do {
    const std::size_t count =
        std::min(kMaxSpansPerBatch, kept.size() - offset);
    trace::SpanBatch batch;
    batch.node = options_.node;
    batch.send_ns = trace::Tracer::instance().now_ns();
    batch.dropped = pending_dropped_;
    batch.spans.assign(kept.begin() + static_cast<std::ptrdiff_t>(offset),
                       kept.begin() + static_cast<std::ptrdiff_t>(offset) +
                           static_cast<std::ptrdiff_t>(count));
    offset += count;

    const std::vector<std::uint8_t> frame =
        wire::encode_span_batch_frame(next_batch_id_++, batch);
    const std::size_t backlog = outbox_.size() - outbox_offset_;
    if (dead_ || backlog + frame.size() > options_.max_outbox_bytes) {
      // Back-pressure: the collector is not keeping up.  Shed this
      // batch whole — bounded memory beats unbounded buffering — and
      // carry the loss into the next batch's dropped field.
      pending_dropped_ += batch.spans.size();
      spans_dropped_.fetch_add(batch.spans.size(),
                               std::memory_order_relaxed);
      batches_dropped_.fetch_add(1, std::memory_order_relaxed);
      if (options_.metrics != nullptr) {
        options_.metrics->trace_spans_dropped.add(batch.spans.size());
        options_.metrics->trace_batches_dropped.add();
      }
    } else {
      outbox_.insert(outbox_.end(), frame.begin(), frame.end());
      pending_dropped_ = 0;
      spans_exported_.fetch_add(batch.spans.size(),
                                std::memory_order_relaxed);
      batches_sent_.fetch_add(1, std::memory_order_relaxed);
      if (options_.metrics != nullptr) {
        options_.metrics->trace_spans_exported.add(batch.spans.size());
        options_.metrics->trace_batches_sent.add();
        options_.metrics->net_frames_out.add();
      }
    }
  } while (offset < kept.size());

  flush(final_tick ? 200 : 0);
}

void TraceStreamer::flush(int wait_ms) {
  for (;;) {
    if (outbox_offset_ == outbox_.size()) {
      outbox_.clear();
      outbox_offset_ = 0;
      return;
    }
    const ssize_t n =
        ::send(socket_.fd(), outbox_.data() + outbox_offset_,
               outbox_.size() - outbox_offset_, MSG_NOSIGNAL);
    if (n > 0) {
      outbox_offset_ += static_cast<std::size_t>(n);
      if (options_.metrics != nullptr) {
        options_.metrics->net_bytes_out.add(static_cast<std::uint64_t>(n));
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (wait_ms <= 0) return;  // try again next tick
      pollfd pfd{socket_.fd(), POLLOUT, 0};
      if (::poll(&pfd, 1, wait_ms) <= 0) return;
      wait_ms = 0;  // one bounded wait per flush call
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // Dead link: everything unsent is lost, and every later batch is
    // shed at the pump (drop-counted) instead of pretending to export.
    error_ = "trace stream connection lost";
    dead_ = true;
    outbox_.clear();
    outbox_offset_ = 0;
    return;
  }
}

}  // namespace mpct::net
