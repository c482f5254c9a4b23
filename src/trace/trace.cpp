#include "trace/trace.hpp"

#include <algorithm>
#include <memory>

namespace mpct::trace {

std::string_view to_string(Category category) {
  switch (category) {
    case Category::Engine:  return "engine";
    case Category::Queue:   return "queue";
    case Category::Cache:   return "cache";
    case Category::Execute: return "execute";
    case Category::Chunk:   return "chunk";
    case Category::Merge:   return "merge";
    case Category::Sweep:   return "sweep";
    case Category::Fault:   return "fault";
    case Category::Core:    return "core";
    case Category::Cost:    return "cost";
    case Category::Noc:     return "noc";
    case Category::Mark:    return "mark";
    case Category::Net:     return "net";
    case Category::Cluster: return "cluster";
    case Category::Sim: return "sim";
    case Category::Qos: return "qos";
  }
  return "unknown";
}

std::string_view to_string(ProfilePoint point) {
  switch (point) {
    case ProfilePoint::ClassifyFast: return "classify_fast";
    case ProfilePoint::CostEvaluate: return "cost_evaluate";
    case ProfilePoint::SweepCell:    return "sweep_cell";
    case ProfilePoint::CurveTrial:   return "curve_trial";
    case ProfilePoint::NocReroute:   return "noc_reroute";
    case ProfilePoint::RouteAround:  return "route_around";
    case ProfilePoint::OmegaRoute:   return "omega_route";
    case ProfilePoint::SweepBatch:   return "sweep_batch";
    case ProfilePoint::SweepFactor:  return "sweep_factor";
    case ProfilePoint::SweepExpand:  return "sweep_expand";
  }
  return "unknown";
}

/// One thread's ring.  Only the owning thread writes; every field is a
/// relaxed atomic so a concurrent snapshot never reads a torn value and
/// TSan sees no race.  `head_` (total spans ever pushed) is published
/// with release after the slot stores, so any slot with index < an
/// acquire-read head is fully written.
struct Tracer::ThreadBuffer {
  struct Slot {
    std::atomic<const char*> name{nullptr};
    std::atomic<const char*> arg_name{nullptr};
    std::atomic<std::int64_t> arg{0};
    std::atomic<std::uint64_t> id{0};
    std::atomic<std::uint64_t> parent{0};
    std::atomic<std::uint64_t> trace_id{0};
    std::atomic<std::int64_t> start_ns{0};
    std::atomic<std::int64_t> dur_ns{0};
    std::atomic<std::uint8_t> category{0};
  };
  struct ProfileSlot {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::int64_t> ns{0};
  };

  explicit ThreadBuffer(std::size_t capacity, std::uint32_t index)
      : slots(capacity), thread_index(index) {}

  void push(const Span& span) {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    Slot& slot = slots[h & (slots.size() - 1)];
    slot.name.store(span.name, std::memory_order_relaxed);
    slot.arg_name.store(span.arg_name, std::memory_order_relaxed);
    slot.arg.store(span.arg, std::memory_order_relaxed);
    slot.id.store(span.id, std::memory_order_relaxed);
    slot.parent.store(span.parent, std::memory_order_relaxed);
    slot.trace_id.store(span.trace_id, std::memory_order_relaxed);
    slot.start_ns.store(span.start_ns, std::memory_order_relaxed);
    slot.dur_ns.store(span.dur_ns, std::memory_order_relaxed);
    slot.category.store(static_cast<std::uint8_t>(span.category),
                        std::memory_order_relaxed);
    head.store(h + 1, std::memory_order_release);
  }

  /// Append the spans at indices [from, head1) to @p out (head1 an
  /// acquire-read of head, from >= head1 - capacity) and return the
  /// first index kept.  Writes that landed while we copied may have
  /// reused slots we read: a copied index i is reliable only if its slot
  /// was not reclaimed by any index in [head1, head2 + 1) (the +1 covers
  /// a write in flight at head2), so only i >= head2 + 1 - capacity is
  /// kept.
  std::uint64_t copy_spans(std::uint64_t from, std::uint64_t head1,
                           std::vector<Span>& out) const {
    const std::uint64_t capacity = slots.size();
    const std::size_t base = out.size();
    for (std::uint64_t i = from; i < head1; ++i) {
      const Slot& slot = slots[i & (capacity - 1)];
      Span span;
      span.name = slot.name.load(std::memory_order_relaxed);
      span.arg_name = slot.arg_name.load(std::memory_order_relaxed);
      span.arg = slot.arg.load(std::memory_order_relaxed);
      span.id = slot.id.load(std::memory_order_relaxed);
      span.parent = slot.parent.load(std::memory_order_relaxed);
      span.trace_id = slot.trace_id.load(std::memory_order_relaxed);
      span.start_ns = slot.start_ns.load(std::memory_order_relaxed);
      span.dur_ns = slot.dur_ns.load(std::memory_order_relaxed);
      span.category =
          static_cast<Category>(slot.category.load(std::memory_order_relaxed));
      span.thread = thread_index;
      out.push_back(span);
    }
    const std::uint64_t head2 = head.load(std::memory_order_acquire);
    const std::uint64_t safe_first =
        head2 + 1 > capacity ? head2 + 1 - capacity : 0;
    const std::uint64_t kept = std::clamp(safe_first, from, head1);
    const auto begin = out.begin() + static_cast<std::ptrdiff_t>(base);
    out.erase(begin, begin + static_cast<std::ptrdiff_t>(kept - from));
    return kept;
  }

  std::vector<Slot> slots;
  std::atomic<std::uint64_t> head{0};  ///< total spans ever pushed
  /// Next index Tracer::drain() will read; written only under the
  /// registry mutex, distinct from any snapshot bookkeeping.
  std::atomic<std::uint64_t> export_cursor{0};
  std::uint32_t thread_index;
  std::array<ProfileSlot, kProfilePointCount> profile{};
};

namespace {

thread_local Tracer::ThreadBuffer* tl_buffer = nullptr;
thread_local std::uint64_t tl_current_span = 0;
thread_local std::uint64_t tl_trace_id = 0;

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

Tracer& Tracer::instance() {
  // Never destroyed: the registry must outlive every recorder, and at
  // exit it still reaches the deliberately leaked thread buffers.
  static Tracer& tracer = *new Tracer;
  return tracer;
}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  if (tl_buffer != nullptr) return *tl_buffer;
  std::lock_guard<std::mutex> lock(registry_mutex_);
  // Buffers are leaked deliberately: a worker thread may record right up
  // to process exit, and the registry must outlive every recorder.
  auto* buffer = new ThreadBuffer(
      capacity_, static_cast<std::uint32_t>(buffers_.size()));
  buffers_.push_back(buffer);
  tl_buffer = buffer;
  return *buffer;
}

void Tracer::enable() {
  bool expected = false;
  if (epoch_set_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    epoch_ns_.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count(),
                    std::memory_order_release);
  }
  detail::g_enabled.store(true, std::memory_order_relaxed);
}

void Tracer::disable() {
  detail::g_enabled.store(false, std::memory_order_relaxed);
}

void Tracer::set_capacity_per_thread(std::size_t spans) {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  capacity_ = round_up_pow2(std::max<std::size_t>(spans, 2));
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  for (ThreadBuffer* buffer : buffers_) {
    if (buffer->slots.size() != capacity_) {
      // vector<atomic> cannot resize in place; swap in a fresh ring.
      std::vector<ThreadBuffer::Slot> fresh(capacity_);
      buffer->slots.swap(fresh);
    }
    buffer->head.store(0, std::memory_order_release);
    buffer->export_cursor.store(0, std::memory_order_relaxed);
    for (auto& slot : buffer->profile) {
      slot.calls.store(0, std::memory_order_relaxed);
      slot.ns.store(0, std::memory_order_relaxed);
    }
  }
}

std::int64_t Tracer::now_ns() const {
  if (!epoch_set_.load(std::memory_order_acquire)) return 0;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
             .count() -
         epoch_ns_.load(std::memory_order_acquire);
}

TraceSnapshot Tracer::snapshot() const {
  TraceSnapshot snap;
  std::lock_guard<std::mutex> lock(registry_mutex_);
  snap.thread_count = static_cast<std::uint32_t>(buffers_.size());
  for (const ThreadBuffer* buffer : buffers_) {
    const std::uint64_t capacity = buffer->slots.size();
    const std::uint64_t head1 = buffer->head.load(std::memory_order_acquire);
    const std::uint64_t first = head1 > capacity ? head1 - capacity : 0;
    // Indices [0, kept) are gone: overwritten before or during the copy.
    snap.dropped += buffer->copy_spans(first, head1, snap.spans);

    for (std::size_t p = 0; p < kProfilePointCount; ++p) {
      snap.profile[p].calls +=
          buffer->profile[p].calls.load(std::memory_order_relaxed);
      snap.profile[p].total_ns +=
          buffer->profile[p].ns.load(std::memory_order_relaxed);
    }
  }
  std::sort(snap.spans.begin(), snap.spans.end(),
            [](const Span& a, const Span& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.id < b.id;
            });
  return snap;
}

Tracer::DrainResult Tracer::drain() {
  DrainResult result;
  std::lock_guard<std::mutex> lock(registry_mutex_);
  for (ThreadBuffer* buffer : buffers_) {
    const std::uint64_t capacity = buffer->slots.size();
    const std::uint64_t cursor =
        buffer->export_cursor.load(std::memory_order_relaxed);
    const std::uint64_t head1 = buffer->head.load(std::memory_order_acquire);
    // Indices the ring no longer holds were overwritten since the last
    // drain, and copied ones a recorder could have reclaimed while we
    // read are discarded: count both lost, as the cursor moves past them.
    const std::uint64_t oldest = head1 > capacity ? head1 - capacity : 0;
    const std::uint64_t first = std::max(cursor, oldest);
    result.dropped += buffer->copy_spans(first, head1, result.spans) - cursor;
    buffer->export_cursor.store(head1, std::memory_order_relaxed);
  }
  return result;
}

namespace detail {

std::uint64_t begin_span() {
  return Tracer::instance().next_id_.fetch_add(1, std::memory_order_relaxed);
}

void end_span(const char* name, const char* arg_name, std::int64_t arg,
              std::uint64_t id, std::uint64_t parent, Category category,
              std::int64_t start_ns, std::int64_t dur_ns) {
  Span span;
  span.name = name;
  span.arg_name = arg_name;
  span.arg = arg;
  span.id = id;
  span.parent = parent;
  span.trace_id = tl_trace_id;
  span.category = category;
  span.start_ns = start_ns;
  span.dur_ns = dur_ns;
  Tracer& tracer = Tracer::instance();
  Tracer::ThreadBuffer& buffer = tracer.local_buffer();
  span.thread = buffer.thread_index;
  buffer.push(span);
}

std::int64_t now_ns() { return Tracer::instance().now_ns(); }

std::uint64_t current_parent() { return tl_current_span; }

void set_current_parent(std::uint64_t id) { tl_current_span = id; }

std::uint64_t current_trace_id() { return tl_trace_id; }

void set_current_trace_id(std::uint64_t trace_id) { tl_trace_id = trace_id; }

void profile_add(ProfilePoint point, std::uint64_t calls, std::int64_t ns) {
  Tracer::ThreadBuffer& buffer = Tracer::instance().local_buffer();
  auto& slot = buffer.profile[static_cast<std::size_t>(point)];
  slot.calls.fetch_add(calls, std::memory_order_relaxed);
  slot.ns.fetch_add(ns, std::memory_order_relaxed);
}

}  // namespace detail

void ScopedSpan::begin(const char* name, Category category) {
  Open& open = open_.emplace();
  open.name = name;
  open.category = category;
  open.id = detail::begin_span();
  open.parent = detail::current_parent();
  detail::set_current_parent(open.id);
  open.start_ns = detail::now_ns();
}

void ScopedSpan::end() {
  const Open& open = *open_;
  const std::int64_t dur = detail::now_ns() - open.start_ns;
  detail::set_current_parent(open.parent);
  detail::end_span(open.name, open.arg_name, open.arg, open.id, open.parent,
                   open.category, open.start_ns, dur < 0 ? 0 : dur);
  open_.reset();
}

void emit_span(const char* name, Category category,
               std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point end,
               const char* arg_name, std::int64_t arg) {
  if (!enabled()) [[likely]] {
    return;
  }
  const std::int64_t end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          end.time_since_epoch())
          .count() -
      Tracer::instance().epoch_ns();
  std::int64_t dur =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count();
  if (dur < 0) dur = 0;
  std::int64_t start_ns = end_ns - dur;
  if (start_ns < 0) start_ns = 0;  // interval began before the epoch
  detail::end_span(name, arg_name, arg, detail::begin_span(),
                   detail::current_parent(), category, start_ns, dur);
}

void emit_instant(const char* name, Category category, const char* arg_name,
                  std::int64_t arg) {
  if (!enabled()) [[likely]] {
    return;
  }
  detail::end_span(name, arg_name, arg, detail::begin_span(),
                   detail::current_parent(), category, detail::now_ns(),
                   Span::kInstant);
}

}  // namespace mpct::trace
