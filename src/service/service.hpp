#pragma once

/// mpct::service — the concurrent taxonomy query engine.
///
/// Turns the library's synchronous entry points into a serving layer:
/// batched classify / recommend / cost requests with per-request
/// deadlines, a fixed worker pool behind a bounded weighted-fair queue
/// (qos::WfqQueue) with explicit backpressure, a sharded LRU result
/// cache keyed by canonical request fingerprints, and a metrics registry
/// (counters, gauges, latency histograms) renderable through
/// src/report/.
///
/// See docs/SERVICE.md for the request types, the backpressure contract,
/// cache keying, and the metrics schema.

#include "service/cache.hpp"
#include "service/engine.hpp"
#include "service/fingerprint.hpp"
#include "service/metrics.hpp"
#include "service/request.hpp"
#include "service/status.hpp"
