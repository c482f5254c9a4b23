/// QoS serving path (src/qos): priority classes, weighted fair
/// queueing, the admission controller's degrade/shed ladder, server-
/// side cancellation, trace-collector retention, and the wire-level
/// compatibility rules for clients that predate all of it.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <atomic>

#include "arch/registry.hpp"
#include "explore/sweep.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "qos/admission.hpp"
#include "qos/cancel.hpp"
#include "qos/priority.hpp"
#include "qos/wfq_queue.hpp"
#include "service/engine.hpp"
#include "trace/collector.hpp"
#include "wire/wire.hpp"

namespace mpct {
namespace {

using qos::Admission;
using qos::AdmissionAction;
using qos::AdmissionController;
using qos::AdmissionOptions;
using qos::PriorityClass;
using qos::WfqQueue;
using qos::WfqWeights;
using service::Deadline;
using service::EngineOptions;
using service::QueryEngine;
using service::QueryResponse;
using service::RecommendRequest;
using service::Request;
using service::StatusCode;

// ---------------------------------------------------------------------------
// WfqQueue: the engine's per-class bounded queue with deficit-round-
// robin dispatch.

TEST(WfqQueue, FifoWithinASingleClass) {
  WfqQueue<int> queue(8);
  for (int value : {1, 2, 3, 4, 5}) {
    int item = value;
    ASSERT_TRUE(queue.try_push(PriorityClass::Interactive, item));
  }
  for (int expected : {1, 2, 3, 4, 5}) {
    int out = 0;
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out, expected);
  }
  EXPECT_EQ(queue.size(), 0u);
}

TEST(WfqQueue, DeficitRoundRobinFollowsWeights) {
  // weight(Interactive)=2, weight(Batch)=1, weight(Background)=1: each
  // non-empty class drains `weight` items per visit, empty classes are
  // skipped without consuming a turn, and an emptied class forfeits its
  // remaining credit.
  WfqWeights weights;
  weights.interactive = 2;
  weights.batch = 1;
  weights.background = 1;
  WfqQueue<std::string> queue(8, weights);
  const auto push = [&queue](PriorityClass cls, const char* label) {
    std::string item = label;
    ASSERT_TRUE(queue.try_push(cls, item));
  };
  push(PriorityClass::Interactive, "i1");
  push(PriorityClass::Interactive, "i2");
  push(PriorityClass::Interactive, "i3");
  push(PriorityClass::Interactive, "i4");
  push(PriorityClass::Batch, "b1");
  push(PriorityClass::Batch, "b2");
  push(PriorityClass::Batch, "b3");
  push(PriorityClass::Background, "g1");
  push(PriorityClass::Background, "g2");

  std::vector<std::string> order;
  while (std::optional<std::string> out = queue.try_pop()) {
    order.push_back(*out);
  }
  const std::vector<std::string> expected = {"i1", "i2", "b1", "g1", "i3",
                                             "i4", "b2", "g2", "b3"};
  EXPECT_EQ(order, expected);
}

TEST(WfqQueue, EmptyClassesAreSkippedWithoutConsumingTurns) {
  // Work-conserving: with only Background queued, Background drains
  // back-to-back — the higher classes' weights never stall the queue.
  WfqQueue<int> queue(4);
  for (int value : {10, 11, 12}) {
    int item = value;
    ASSERT_TRUE(queue.try_push(PriorityClass::Background, item));
  }
  for (int expected : {10, 11, 12}) {
    int out = 0;
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out, expected);
  }
}

TEST(WfqQueue, TryPushRespectsPerClassCapacityAndLeavesItemUntouched) {
  WfqQueue<std::string> queue(2);
  std::string a = "a";
  std::string b = "b";
  std::string c = "still mine";
  ASSERT_TRUE(queue.try_push(PriorityClass::Interactive, a));
  ASSERT_TRUE(queue.try_push(PriorityClass::Interactive, b));
  EXPECT_FALSE(queue.try_push(PriorityClass::Interactive, c));
  EXPECT_EQ(c, "still mine");  // rejected pushes never consume the item

  // Capacity is per class: Batch admission is independent of the
  // Interactive backlog.
  std::string d = "d";
  EXPECT_TRUE(queue.try_push(PriorityClass::Batch, d));
}

TEST(WfqQueue, CloseDrainsQueuedItemsThenUnblocksPop) {
  WfqQueue<int> queue(4);
  int one = 1;
  int two = 2;
  ASSERT_TRUE(queue.try_push(PriorityClass::Batch, one));
  ASSERT_TRUE(queue.try_push(PriorityClass::Batch, two));
  queue.close();
  int rejected = 3;
  EXPECT_FALSE(queue.try_push(PriorityClass::Interactive, rejected));
  int out = 0;
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(queue.pop(out));  // closed and empty

  // A consumer already blocked on an empty queue wakes up on close()
  // and gets false — how engine and proxy workers exit.
  WfqQueue<int> idle(4);
  std::atomic<bool> returned{false};
  std::thread consumer([&idle, &returned] {
    int item = 0;
    EXPECT_FALSE(idle.pop(item));
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());  // still blocked: nothing to pop
  idle.close();
  consumer.join();
  EXPECT_TRUE(returned.load());
}

TEST(WfqQueue, PopBlocksUntilAPushArrives) {
  WfqQueue<int> queue(4);
  int out = 0;
  std::thread popper([&queue, &out] { ASSERT_TRUE(queue.pop(out)); });
  int value = 42;
  ASSERT_TRUE(queue.try_push(PriorityClass::Interactive, value));
  popper.join();
  EXPECT_EQ(out, 42);
}

TEST(WfqQueue, RemoveAllIfReclaimsMatchesAndPreservesSurvivorOrder) {
  WfqQueue<int> queue(8);
  for (int value : {1, 2, 3, 4}) {
    int item = value;
    ASSERT_TRUE(queue.try_push(PriorityClass::Interactive, item));
  }
  for (int value : {5, 6}) {
    int item = value;
    ASSERT_TRUE(queue.try_push(PriorityClass::Batch, item));
  }
  std::vector<int> removed;
  const std::size_t count =
      queue.remove_all_if([](int v) { return v % 2 == 1; }, removed);
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(removed, (std::vector<int>{1, 3, 5}));
  EXPECT_EQ(queue.size(), 3u);
  std::vector<int> survivors;
  int out = 0;
  while (queue.size() > 0) {
    ASSERT_TRUE(queue.pop(out));
    survivors.push_back(out);
  }
  // Interactive survivors stay FIFO; DRR then visits Batch.
  EXPECT_EQ(survivors, (std::vector<int>{2, 4, 6}));
}

TEST(WfqQueue, MaxFillTracksTheFullestClass) {
  WfqQueue<int> queue(4);
  EXPECT_DOUBLE_EQ(queue.max_fill(), 0.0);
  int item = 0;
  ASSERT_TRUE(queue.try_push(PriorityClass::Interactive, item));
  ASSERT_TRUE(queue.try_push(PriorityClass::Interactive, item));
  ASSERT_TRUE(queue.try_push(PriorityClass::Batch, item));
  EXPECT_DOUBLE_EQ(queue.max_fill(), 0.5);  // fullest subqueue: 2/4
}

// ---------------------------------------------------------------------------
// Priority taxonomy: point queries are Interactive, grid work is
// Batch, and nothing defaults to Background.

TEST(Priority, DefaultsFollowTheRequestTaxonomy) {
  using service::RequestType;
  EXPECT_EQ(qos::default_priority(RequestType::Classify),
            PriorityClass::Interactive);
  EXPECT_EQ(qos::default_priority(RequestType::Recommend),
            PriorityClass::Interactive);
  EXPECT_EQ(qos::default_priority(RequestType::Cost),
            PriorityClass::Interactive);
  EXPECT_EQ(qos::default_priority(RequestType::Simulate),
            PriorityClass::Interactive);
  EXPECT_EQ(qos::default_priority(RequestType::Sweep), PriorityClass::Batch);
  EXPECT_EQ(qos::default_priority(RequestType::FaultSweep),
            PriorityClass::Batch);
  EXPECT_EQ(qos::default_priority(RequestType::SweepChunk),
            PriorityClass::Batch);
  EXPECT_EQ(qos::default_priority(RequestType::FaultChunk),
            PriorityClass::Batch);
}

// ---------------------------------------------------------------------------
// AdmissionController: the degrade/shed ladder over a dimensionless
// pressure signal (max of queue fill and windowed-p99 / budget).

TEST(Admission, LadderStepsAtTheConfiguredPressures) {
  const AdmissionOptions options;  // 0.70 / 0.85 / 0.95
  AdmissionController controller(options);

  // Below degrade_pressure everything is admitted verbatim.
  for (PriorityClass cls : {PriorityClass::Interactive, PriorityClass::Batch,
                            PriorityClass::Background}) {
    EXPECT_EQ(controller.decide(cls, 0.5).action, AdmissionAction::Admit);
  }

  // [degrade, shed_background): everything degrades, nothing is shed.
  for (PriorityClass cls : {PriorityClass::Interactive, PriorityClass::Batch,
                            PriorityClass::Background}) {
    EXPECT_EQ(controller.decide(cls, 0.75).action, AdmissionAction::Degrade);
  }

  // [shed_background, shed_batch): Background is rejected, Batch and
  // Interactive still degrade.
  EXPECT_EQ(controller.decide(PriorityClass::Background, 0.90).action,
            AdmissionAction::Shed);
  EXPECT_EQ(controller.decide(PriorityClass::Batch, 0.90).action,
            AdmissionAction::Degrade);
  EXPECT_EQ(controller.decide(PriorityClass::Interactive, 0.90).action,
            AdmissionAction::Degrade);

  // Past shed_batch, Batch goes too; Interactive is never shed.
  EXPECT_EQ(controller.decide(PriorityClass::Batch, 0.96).action,
            AdmissionAction::Shed);
  EXPECT_EQ(controller.decide(PriorityClass::Interactive, 0.96).action,
            AdmissionAction::Degrade);
}

TEST(Admission, InteractiveIsNeverShedEvenAtExtremePressure) {
  AdmissionController controller(AdmissionOptions{});
  const Admission decision = controller.decide(PriorityClass::Interactive, 5.0);
  EXPECT_EQ(decision.action, AdmissionAction::Degrade);
  EXPECT_DOUBLE_EQ(decision.pressure, 5.0);
}

TEST(Admission, RetryAfterScalesWithOvershootAndCaps) {
  AdmissionOptions options;
  AdmissionController controller(options);

  // At the first shed threshold: one base unit.
  const Admission at_threshold =
      controller.decide(PriorityClass::Background, 0.85);
  EXPECT_EQ(at_threshold.action, AdmissionAction::Shed);
  EXPECT_EQ(at_threshold.retry_after_ms, 25u);

  // Deeper overload quotes longer hints...
  const Admission deeper = controller.decide(PriorityClass::Background, 1.10);
  EXPECT_EQ(deeper.action, AdmissionAction::Shed);
  EXPECT_GT(deeper.retry_after_ms, at_threshold.retry_after_ms);

  // ...capped at 8x base so clients never give up outright.
  const Admission extreme = controller.decide(PriorityClass::Background, 50.0);
  EXPECT_EQ(extreme.retry_after_ms, 25u * 8u);
}

TEST(Admission, QuantileOfWindowDiffsSnapshotsAndInterpolates) {
  using Buckets = AdmissionController::Buckets;
  Buckets prev;
  Buckets now;

  // An empty window (no traffic between snapshots) reads as zero.
  EXPECT_DOUBLE_EQ(AdmissionController::quantile_of_window(now, prev, 0.99),
                   0.0);

  // 100 requests all landing in bucket 10 — latencies in
  // (2^10, 2^11] ns.  The interpolated p99 sits near the top of that
  // bucket, and cumulative history (equal counts in prev and now)
  // cancels out of the diff.
  prev.counts[10] = 50;
  now.counts[10] = 150;
  const double p99_us =
      AdmissionController::quantile_of_window(now, prev, 0.99);
  EXPECT_GT(p99_us, 1024.0 / 1000.0);
  EXPECT_LE(p99_us, 2048.0 / 1000.0);

  // A racing snapshot where now < prev clamps to zero instead of
  // underflowing.
  Buckets behind;
  behind.counts[10] = 10;
  EXPECT_DOUBLE_EQ(
      AdmissionController::quantile_of_window(behind, now, 0.99), 0.0);
}

TEST(Admission, ObservedLatencyDrivesPressureWithoutAnyQueueBacklog) {
  using Buckets = AdmissionController::Buckets;
  AdmissionOptions options;
  options.refresh_interval = std::chrono::milliseconds(0);
  options.interactive_p99_budget = std::chrono::microseconds(1000);
  AdmissionController controller(options);

  const auto at = [](std::int64_t ns) {
    return std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns));
  };
  Buckets first;  // baseline snapshot
  controller.observe(first, at(1));

  // The next window carries 100 requests around 2^20 ns ≈ 1.05 ms —
  // past the 1 ms budget, so pressure exceeds 1.0 at queue fill zero
  // and Background sheds on latency alone.
  Buckets second;
  second.counts[20] = 100;
  controller.observe(second, at(2));
  EXPECT_GT(controller.windowed_p99_us(), 1000.0);
  EXPECT_GT(controller.pressure(0.0), 1.0);
  EXPECT_EQ(controller.decide(PriorityClass::Background, 0.0).action,
            AdmissionAction::Shed);
}

// ---------------------------------------------------------------------------
// CancelRegistry: (owner, id) keyed cooperative cancellation tokens.

TEST(CancelRegistry, CancelFlagsLiveKeysAndIgnoresUnknownOnes) {
  qos::CancelRegistry registry;
  const qos::CancelToken token = registry.add(7, 42);
  ASSERT_NE(token, nullptr);
  EXPECT_FALSE(token->is_cancelled());

  // Re-registering a live key returns the same token.
  EXPECT_EQ(registry.add(7, 42), token);
  EXPECT_EQ(registry.size(), 1u);

  // Another owner's identical id is a different request.
  EXPECT_EQ(registry.cancel(8, 42), nullptr);
  EXPECT_FALSE(token->is_cancelled());

  EXPECT_EQ(registry.cancel(7, 42), token);
  EXPECT_TRUE(token->is_cancelled());

  registry.erase(7, 42);
  EXPECT_EQ(registry.cancel(7, 42), nullptr);
  EXPECT_EQ(registry.size(), 0u);
}

// ---------------------------------------------------------------------------
// Engine integration: the ladder, degradation, and cancellation as the
// serving path actually runs them.  start_workers = false lets the
// tests set the queue fill deterministically before anything drains.

explore::SweepGrid qos_grid() {
  explore::SweepGrid grid;
  grid.n_values = {2, 4, 8, 16, 32, 64};
  grid.lut_budgets = {64, 512, 4096};
  grid.objectives = {explore::Requirements::Objective::MinConfigBits,
                     explore::Requirements::Objective::MinArea};
  return grid;
}

TEST(QosEngine, ShedsBackgroundWithOverloadedAndDisjointCounters) {
  EngineOptions options;
  options.enable_qos = true;
  options.worker_threads = 2;
  options.start_workers = false;
  options.queue_capacity = 10;
  options.enable_cache = false;
  QueryEngine engine(options);

  // Fill the Interactive subqueue to 0.9 — past shed_background (0.85)
  // but short of shed_batch (0.95).
  std::vector<std::future<QueryResponse>> fillers;
  for (int i = 0; i < 9; ++i) {
    fillers.push_back(engine.submit(RecommendRequest{}));
  }

  QueryResponse shed = engine
                           .submit(RecommendRequest{}, Deadline::never(),
                                   PriorityClass::Background)
                           .get();
  EXPECT_EQ(shed.status.code, StatusCode::Overloaded);
  EXPECT_GE(shed.status.retry_after_ms, 25u);
  EXPECT_EQ(shed.payload, nullptr);

  // Batch still degrades at this pressure instead of shedding.
  std::future<QueryResponse> batch = engine.submit(
      RecommendRequest{}, Deadline::never(), PriorityClass::Batch);

  const auto& metrics = engine.metrics();
  EXPECT_EQ(metrics.qos_shed_background.value(), 1u);
  EXPECT_EQ(metrics.qos_shed_batch.value(), 0u);
  // Counting invariant (docs/SERVICE.md): a shed is a policy refusal,
  // disjoint from every lifecycle rejection counter.
  EXPECT_EQ(metrics.rejected_deadline.value(), 0u);
  EXPECT_EQ(metrics.expired_in_queue.value(), 0u);
  EXPECT_EQ(metrics.rejected_queue_full.value(), 0u);

  engine.start();
  for (auto& filler : fillers) EXPECT_TRUE(filler.get().ok());
  EXPECT_TRUE(batch.get().ok());
}

TEST(QosEngine, BatchShedsAtFullQueueButInteractiveOnlyHitsCapacity) {
  EngineOptions options;
  options.enable_qos = true;
  options.worker_threads = 2;
  options.start_workers = false;
  options.queue_capacity = 10;
  options.enable_cache = false;
  QueryEngine engine(options);

  std::vector<std::future<QueryResponse>> fillers;
  for (int i = 0; i < 10; ++i) {
    fillers.push_back(engine.submit(RecommendRequest{}));
  }

  // Pressure 1.0: Batch is policy-shed before any enqueue is tried.
  QueryResponse batch = engine
                            .submit(RecommendRequest{}, Deadline::never(),
                                    PriorityClass::Batch)
                            .get();
  EXPECT_EQ(batch.status.code, StatusCode::Overloaded);

  // Interactive is never policy-shed: it rides the ladder to the queue
  // itself, whose full subqueue answers QueueFull — a capacity fact,
  // not a shed, and counted as such.
  QueryResponse interactive = engine.submit(RecommendRequest{}).get();
  EXPECT_EQ(interactive.status.code, StatusCode::QueueFull);

  const auto& metrics = engine.metrics();
  EXPECT_EQ(metrics.qos_shed_batch.value(), 1u);
  EXPECT_EQ(metrics.qos_shed_background.value(), 0u);
  EXPECT_EQ(metrics.rejected_queue_full.value(), 1u);

  engine.start();
  for (auto& filler : fillers) EXPECT_TRUE(filler.get().ok());
}

TEST(QosEngine, DegradeStridesSweepGridsAndMarksResponsesSampled) {
  EngineOptions options;
  options.enable_qos = true;
  options.worker_threads = 2;
  options.start_workers = false;
  options.queue_capacity = 32;
  options.enable_cache = false;
  QueryEngine engine(options);

  // 24/32 = 0.75 — inside [degrade, shed_background).
  std::vector<std::future<QueryResponse>> fillers;
  for (int i = 0; i < 24; ++i) {
    fillers.push_back(engine.submit(RecommendRequest{}));
  }

  std::future<QueryResponse> future =
      engine.submit(Request{service::SweepRequest{qos_grid()}});
  engine.start();
  const QueryResponse response = future.get();
  ASSERT_TRUE(response.ok()) << response.status.to_string();
  EXPECT_TRUE(response.sampled);

  // The strided subgrid keeps every second n and LUT budget, so the
  // answer is a genuine sweep of the smaller grid, not an approximation
  // of the full one.
  explore::SweepGrid strided = qos_grid();
  strided.n_values = {2, 8, 32};
  strided.lut_budgets = {64, 4096};
  const service::SweepResponse* payload = response.sweep();
  ASSERT_NE(payload, nullptr);
  EXPECT_EQ(payload->result, explore::sweep(strided));
  EXPECT_EQ(payload->result.points.size(), 12u);

  EXPECT_GE(engine.metrics().qos_degraded_responses.value(), 1u);
  for (auto& filler : fillers) EXPECT_TRUE(filler.get().ok());
}

TEST(QosEngine, CancelDequeuesQueuedWorkAndCountsReclaimedCapacity) {
  EngineOptions options;
  options.enable_qos = true;
  options.worker_threads = 2;
  options.start_workers = false;
  options.queue_capacity = 8;
  QueryEngine engine(options);

  std::mutex mutex;
  std::vector<StatusCode> resolved;
  const auto capture = [&mutex, &resolved](QueryResponse response) {
    std::lock_guard<std::mutex> lock(mutex);
    resolved.push_back(response.status.code);
  };

  engine.submit_async(RecommendRequest{}, Deadline::never(),
                      PriorityClass::Interactive, /*cancel_owner=*/7,
                      /*cancel_id=*/42, capture);
  EXPECT_EQ(engine.queue_depth(), 1u);

  // A cancel naming an unknown key is a no-op...
  EXPECT_FALSE(engine.cancel(7, 41));
  EXPECT_FALSE(engine.cancel(9, 42));

  // ...the real one dequeues the waiting request right now: reclaimed
  // capacity, resolved Cancelled, counted qos_cancelled_queued.
  EXPECT_TRUE(engine.cancel(7, 42));
  EXPECT_EQ(engine.queue_depth(), 0u);
  {
    std::lock_guard<std::mutex> lock(mutex);
    ASSERT_EQ(resolved.size(), 1u);
    EXPECT_EQ(resolved.front(), StatusCode::Cancelled);
  }
  const auto& metrics = engine.metrics();
  EXPECT_EQ(metrics.qos_cancelled_queued.value(), 1u);

  // The registration died with the request: cancelling again misses.
  EXPECT_FALSE(engine.cancel(7, 42));

  // A queued grid job of either kind leaves the queue whole: every one
  // of its chunks (a curve's several, a sweep's one) is dequeued, it
  // resolves Cancelled exactly once, and it counts as one reclaimed
  // request, not one per chunk.
  service::FaultSweepRequest curve;
  curve.spec.machine.granularity = Granularity::IpDp;
  curve.spec.machine.ips = Multiplicity::Many;
  curve.spec.machine.dps = Multiplicity::Many;
  curve.spec.machine.set_switch(ConnectivityRole::IpDp, SwitchKind::Crossbar);
  curve.spec.bindings.n = 4;
  curve.spec.fault_rates = {0.0, 0.1, 0.25};
  curve.spec.trials_per_rate = 8;
  const Request grid_jobs[] = {service::SweepRequest{qos_grid()}, curve};
  std::uint64_t cancel_id = 43;
  for (const Request& job : grid_jobs) {
    SCOPED_TRACE(service::to_string(service::request_type(job)));
    const std::uint64_t cancelled_before = metrics.qos_cancelled_queued.value();
    engine.submit_async(job, Deadline::never(), PriorityClass::Batch, 7,
                        cancel_id, capture);
    if (std::holds_alternative<service::SweepRequest>(job)) {
      EXPECT_EQ(engine.queue_depth(), 1u);  // a sweep is one task
    } else {
      EXPECT_GT(engine.queue_depth(), 1u);  // split into several chunks
    }
    EXPECT_TRUE(engine.cancel(7, cancel_id));
    EXPECT_EQ(engine.queue_depth(), 0u);
    EXPECT_EQ(metrics.qos_cancelled_queued.value(), cancelled_before + 1);
    {
      std::lock_guard<std::mutex> lock(mutex);
      ASSERT_EQ(resolved.size(), 1u + (cancel_id - 42));
      EXPECT_EQ(resolved.back(), StatusCode::Cancelled);
    }
    EXPECT_FALSE(engine.cancel(7, cancel_id));
    ++cancel_id;
  }
  EXPECT_EQ(metrics.qos_cancelled_inflight.value(), 0u);

  // Cancellation is not a deadline or queue event.
  EXPECT_EQ(metrics.rejected_deadline.value(), 0u);
  EXPECT_EQ(metrics.expired_in_queue.value(), 0u);
  EXPECT_EQ(metrics.rejected_queue_full.value(), 0u);

  engine.start();
  engine.drain();
}

TEST(QosEngine, QosOffPreservesFifoOrderAcrossClasses) {
  EngineOptions options;
  options.enable_qos = false;
  options.worker_threads = 1;
  options.start_workers = false;
  options.enable_cache = false;
  QueryEngine engine(options);

  std::mutex mutex;
  std::vector<int> order;
  const auto capture = [&mutex, &order](int index) {
    return [&mutex, &order, index](QueryResponse response) {
      ASSERT_TRUE(response.ok());
      std::lock_guard<std::mutex> lock(mutex);
      order.push_back(index);
    };
  };

  // Mixed classes, submitted 0..2: with QoS off everything rides the
  // single legacy FIFO regardless of class.
  engine.submit_async(RecommendRequest{}, Deadline::never(),
                      PriorityClass::Background, 0, 0, capture(0));
  engine.submit_async(RecommendRequest{}, Deadline::never(),
                      PriorityClass::Background, 0, 0, capture(1));
  engine.submit_async(RecommendRequest{}, Deadline::never(),
                      PriorityClass::Interactive, 0, 0, capture(2));
  engine.start();
  engine.drain();

  std::lock_guard<std::mutex> lock(mutex);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(QosEngine, QosOnLetsInteractiveJumpQueuedBackgroundWork) {
  EngineOptions options;
  options.enable_qos = true;
  options.worker_threads = 1;
  options.start_workers = false;
  options.enable_cache = false;
  QueryEngine engine(options);

  std::mutex mutex;
  std::vector<int> order;
  const auto capture = [&mutex, &order](int index) {
    return [&mutex, &order, index](QueryResponse response) {
      ASSERT_TRUE(response.ok());
      std::lock_guard<std::mutex> lock(mutex);
      order.push_back(index);
    };
  };

  // Same submission order as the QoS-off test — but WFQ dispatches the
  // Interactive request first even though it arrived last.
  engine.submit_async(RecommendRequest{}, Deadline::never(),
                      PriorityClass::Background, 0, 0, capture(0));
  engine.submit_async(RecommendRequest{}, Deadline::never(),
                      PriorityClass::Background, 0, 0, capture(1));
  engine.submit_async(RecommendRequest{}, Deadline::never(),
                      PriorityClass::Interactive, 0, 0, capture(2));
  engine.start();
  engine.drain();

  std::lock_guard<std::mutex> lock(mutex);
  EXPECT_EQ(order, (std::vector<int>{2, 0, 1}));
}

// ---------------------------------------------------------------------------
// Wire compatibility: clients that predate QoS (v1, or v2 without the
// trailing priority byte) must decode to the request type's default
// class — an unaware client is never accidentally reclassified.

service::Request classify_request() {
  return service::Request{
      service::ClassifyRequest::of(arch::surveyed_architectures().front())};
}

TEST(QosWire, V1FramesDecodeToTheRequestTypesDefaultClass) {
  const auto classify =
      wire::encode_request_frame(1, classify_request(), 100, /*version=*/1);
  const auto decoded_classify =
      wire::decode_request_frame(classify.data(), classify.size());
  ASSERT_TRUE(decoded_classify.ok()) << decoded_classify.error.to_string();
  EXPECT_EQ(decoded_classify.value->priority, PriorityClass::Interactive);

  const Request sweep{service::SweepRequest{qos_grid()}};
  const auto sweep_frame =
      wire::encode_request_frame(2, sweep, 100, /*version=*/1);
  const auto decoded_sweep =
      wire::decode_request_frame(sweep_frame.data(), sweep_frame.size());
  ASSERT_TRUE(decoded_sweep.ok()) << decoded_sweep.error.to_string();
  EXPECT_EQ(decoded_sweep.value->priority, PriorityClass::Batch);
}

TEST(QosWire, ExplicitPriorityRidesV2AndIsDroppedAtV1) {
  const auto v2 = wire::encode_request_frame(
      3, classify_request(), 100, wire::kProtocolVersion, 0,
      PriorityClass::Background);
  const auto decoded_v2 = wire::decode_request_frame(v2.data(), v2.size());
  ASSERT_TRUE(decoded_v2.ok()) << decoded_v2.error.to_string();
  EXPECT_EQ(decoded_v2.value->priority, PriorityClass::Background);

  // v1 has no byte to carry the class: an explicit one is silently
  // dropped and the decoder falls back to the type default.
  const auto v1 = wire::encode_request_frame(4, classify_request(), 100,
                                             /*version=*/1, 0,
                                             PriorityClass::Background);
  const auto decoded_v1 = wire::decode_request_frame(v1.data(), v1.size());
  ASSERT_TRUE(decoded_v1.ok()) << decoded_v1.error.to_string();
  EXPECT_EQ(decoded_v1.value->priority, PriorityClass::Interactive);
}

TEST(QosWire, PreQosV2FramesWithoutThePriorityByteStillDecode) {
  // Simulate a v2 client from before the QoS extension: same header,
  // payload one byte shorter.  The decoder must treat the missing
  // extension as "use the request type's default".
  const Request sweep{service::SweepRequest{qos_grid()}};
  std::vector<std::uint8_t> frame = wire::encode_request_frame(5, sweep, 100);
  std::uint32_t payload_size = 0;
  std::memcpy(&payload_size, frame.data() + 16, sizeof(payload_size));
  payload_size -= 1;
  std::memcpy(frame.data() + 16, &payload_size, sizeof(payload_size));
  frame.pop_back();

  const auto decoded = wire::decode_request_frame(frame.data(), frame.size());
  ASSERT_TRUE(decoded.ok()) << decoded.error.to_string();
  EXPECT_EQ(decoded.value->priority, PriorityClass::Batch);
}

TEST(QosWire, CancelFrameRoundTripsAndRejectsEveryTruncation) {
  const auto frame = wire::encode_cancel_frame(77, 0x7ace0003);
  const auto decoded = wire::decode_cancel_frame(frame.data(), frame.size());
  ASSERT_TRUE(decoded.ok()) << decoded.error.to_string();
  EXPECT_EQ(decoded.value->request_id, 77u);
  EXPECT_EQ(decoded.value->trace_id, 0x7ace0003u);

  for (std::size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(wire::decode_cancel_frame(frame.data(), len).ok());
  }

  // A CancelRequest decoder pointed at a different frame kind must
  // answer with a typed error, not a bogus cancel.
  const auto request_frame = wire::encode_request_frame(6, classify_request());
  EXPECT_FALSE(
      wire::decode_cancel_frame(request_frame.data(), request_frame.size())
          .ok());
}

// ---------------------------------------------------------------------------
// Over the wire: a CancelRequest frame must reach the server's engine
// and reclaim queued work, and an Overloaded answer must be the one
// server response a client treats as transient.

TEST(QosNet, WireCancelReclaimsAQueuedRequestServerSide) {
  EngineOptions options;
  options.enable_qos = true;
  options.worker_threads = 2;
  options.start_workers = false;  // submissions stay queued: cancellable
  QueryEngine engine(options);
  net::Server server(engine);
  ASSERT_TRUE(server.start()) << server.error();

  service::MetricsRegistry client_metrics;
  net::ClientOptions copts;
  copts.port = server.port();
  copts.metrics = &client_metrics;
  net::Client client(copts);

  std::string error;
  std::uint64_t id = 0;
  ASSERT_TRUE(client.send_request(Request{RecommendRequest{}},
                                  Deadline::in(std::chrono::seconds(5)), 0, id,
                                  error))
      << error;
  ASSERT_TRUE(client.send_cancel(id, error)) << error;

  // The cancelled request's own response is the acknowledgement.
  QueryResponse response;
  bool answered = false;
  for (int i = 0; i < 500 && !answered; ++i) {
    std::string pump_error;
    client.pump(std::chrono::milliseconds(10), pump_error);
    answered = client.take_response(id, response);
  }
  ASSERT_TRUE(answered);
  EXPECT_EQ(response.status.code, StatusCode::Cancelled);

  // Reclaimed capacity on the server, accounted on both sides.
  EXPECT_EQ(engine.metrics().qos_cancels_received.value(), 1u);
  EXPECT_EQ(engine.metrics().qos_cancelled_queued.value(), 1u);
  EXPECT_EQ(client_metrics.qos_cancels_sent.value(), 1u);
  EXPECT_EQ(engine.queue_depth(), 0u);

  server.stop();
  engine.start();
}

TEST(QosNet, ClientRetriesOverloadedAnswersAndSucceeds) {
  // A handler that sheds the first attempt with a retry-after hint and
  // serves the second: the client must resend (Overloaded is the one
  // retryable server answer) and come back with the real result.
  EngineOptions inline_options;
  inline_options.worker_threads = 0;
  QueryEngine inline_engine(inline_options);
  std::atomic<int> calls{0};
  service::MetricsRegistry server_metrics;
  net::Server server(
      [&inline_engine, &calls](service::Request request, Deadline,
                               const net::Server::RequestContext&,
                               QueryEngine::ResponseCallback callback) {
        if (calls.fetch_add(1) == 0) {
          QueryResponse shed;
          shed.status = service::Status::overloaded("admission shed", 5);
          callback(std::move(shed));
          return;
        }
        callback(inline_engine.execute(request));
      },
      server_metrics);
  ASSERT_TRUE(server.start()) << server.error();

  service::MetricsRegistry client_metrics;
  net::ClientOptions copts;
  copts.port = server.port();
  copts.metrics = &client_metrics;
  net::Client client(copts);

  const QueryResponse response = client.call(Request{RecommendRequest{}});
  ASSERT_TRUE(response.ok()) << response.status.to_string();
  EXPECT_EQ(calls.load(), 2);
  EXPECT_GE(client_metrics.net_retries.value(), 1u);
}

// ---------------------------------------------------------------------------
// Collector retention: the span store is bounded; whole traces evict
// oldest-first so everything retained still assembles.

trace::SpanBatch batch_of(std::uint64_t trace_id, std::size_t span_count,
                          const char* node = "alpha") {
  trace::SpanBatch batch;
  batch.node = node;
  batch.send_ns = 1000;
  for (std::size_t i = 0; i < span_count; ++i) {
    trace::ExportSpan span;
    span.name = "span";
    span.id = trace_id * 100 + i;
    span.trace_id = trace_id;
    span.start_ns = static_cast<std::int64_t>(100 * i);
    span.dur_ns = 10;
    span.category = trace::Category::Engine;
    batch.spans.push_back(span);
  }
  return batch;
}

TEST(TraceRetention, EvictsWholeTracesOldestFirst) {
  trace::Collector collector(/*max_spans=*/5);
  collector.ingest(batch_of(1, 3), 2000);
  collector.ingest(batch_of(2, 3), 2000);  // 6 > 5: trace 1 evicts whole

  EXPECT_EQ(collector.resident_spans(), 3u);
  EXPECT_EQ(collector.trace_ids(), (std::vector<std::uint64_t>{2}));
  const trace::CollectorStats stats = collector.stats();
  EXPECT_EQ(stats.evicted_traces, 1u);
  EXPECT_EQ(stats.evicted_spans, 3u);
  // The monotonic ingest counters keep counting everything seen.
  EXPECT_EQ(stats.spans, 6u);

  // The survivor still assembles completely; the victim is gone.
  EXPECT_EQ(collector.assemble(1), "");
  const std::string timeline = collector.assemble(2);
  EXPECT_NE(timeline.find("\"trace\":2"), std::string::npos);

  // A re-ingested trace 1 is a brand-new trace, at the back of the
  // eviction queue.
  collector.ingest(batch_of(1, 3), 2000);  // 6 > 5 again: trace 2 evicts
  EXPECT_EQ(collector.trace_ids(), (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(collector.stats().evicted_traces, 2u);
}

TEST(TraceRetention, ASingleOversizedTraceStaysResident) {
  trace::Collector collector(/*max_spans=*/2);
  collector.ingest(batch_of(9, 4), 2000);

  // Eviction never strips a trace span-by-span, and stops when one
  // trace remains — the cap is soft by at most one trace.
  EXPECT_EQ(collector.resident_spans(), 4u);
  EXPECT_EQ(collector.stats().evicted_traces, 0u);

  // A second trace arriving pushes the oversized one out.
  collector.ingest(batch_of(10, 1), 2000);
  EXPECT_EQ(collector.resident_spans(), 1u);
  EXPECT_EQ(collector.trace_ids(), (std::vector<std::uint64_t>{10}));
  const trace::CollectorStats stats = collector.stats();
  EXPECT_EQ(stats.evicted_traces, 1u);
  EXPECT_EQ(stats.evicted_spans, 4u);
}

TEST(TraceRetention, UnboundedByDefault) {
  trace::Collector collector;
  EXPECT_EQ(collector.max_spans(), 0u);
  for (std::uint64_t id = 1; id <= 50; ++id) {
    collector.ingest(batch_of(id, 2), 2000);
  }
  EXPECT_EQ(collector.resident_spans(), 100u);
  EXPECT_EQ(collector.stats().evicted_traces, 0u);
}

}  // namespace
}  // namespace mpct
