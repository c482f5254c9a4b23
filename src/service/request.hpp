#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "arch/spec.hpp"
#include "core/classifier.hpp"
#include "core/flexibility.hpp"
#include "core/machine_class.hpp"
#include "cost/area_model.hpp"
#include "cost/config_bits.hpp"
#include "explore/recommend.hpp"
#include "explore/sweep.hpp"
#include "fault/degradation_curve.hpp"
#include "fault/fault_model.hpp"
#include "service/status.hpp"
#include "workload/runner.hpp"

namespace mpct::service {

using Clock = std::chrono::steady_clock;

/// The largest payload one wire frame carries (wire::kMaxPayloadBytes).
/// A frame announcing more is rejected before any allocation, and a grid
/// request whose answer could not fit is refused (GridKind::validate).
inline constexpr std::size_t kMaxPayloadBytes = 16u << 20;  // 16 MiB

/// Absolute per-request deadline.  A request whose deadline has passed
/// when a worker dequeues it is answered with DeadlineExceeded instead of
/// being executed — late answers are useless to an interactive design
/// tool, and dropping them early keeps the queue from snowballing.
struct Deadline {
  Clock::time_point at = Clock::time_point::max();

  static Deadline never() { return {}; }
  static Deadline in(Clock::duration budget) {
    return {Clock::now() + budget};
  }
  static Deadline at_time(Clock::time_point when) { return {when}; }

  bool is_infinite() const { return at == Clock::time_point::max(); }
  bool expired(Clock::time_point now = Clock::now()) const {
    return !is_infinite() && now >= at;
  }
};

/// Classify one architecture: either an already-built spec or ADL text
/// (parsed with arch::parse_single_adl).  Mirrors the sequential
/// ArchitectureSpec::classify()/flexibility() pair.
struct ClassifyRequest {
  std::variant<arch::ArchitectureSpec, std::string> input;

  static ClassifyRequest of(arch::ArchitectureSpec spec) {
    return {std::move(spec)};
  }
  static ClassifyRequest of_adl(std::string adl_text) {
    return {std::move(adl_text)};
  }

  friend bool operator==(const ClassifyRequest&,
                         const ClassifyRequest&) = default;
};

struct ClassifyResponse {
  /// Resolved spec (the parsed one when the request carried ADL text).
  arch::ArchitectureSpec spec;
  Classification classification;
  FlexibilityBreakdown flexibility;

  friend bool operator==(const ClassifyResponse&,
                         const ClassifyResponse&) = default;
};

/// Rank the implementable taxonomy classes against designer requirements
/// (the paper's conclusion use-case, explore::recommend).
struct RecommendRequest {
  explore::Requirements requirements;
  /// Keep only the best k recommendations; 0 keeps all.
  std::size_t top_k = 0;

  friend bool operator==(const RecommendRequest&,
                         const RecommendRequest&) = default;
};

struct RecommendResponse {
  std::vector<explore::Recommendation> recommendations;

  friend bool operator==(const RecommendResponse&,
                         const RecommendResponse&) = default;
};

/// Evaluate Eq. 1 (area) and Eq. 2 (configuration bits) for a class or a
/// concrete spec, optionally sweeping the component count n.  An empty
/// sweep evaluates just options.n — the single-point query.
struct CostRequest {
  std::variant<MachineClass, arch::ArchitectureSpec> target;
  cost::EstimateOptions options;
  std::vector<std::int64_t> n_sweep;

  friend bool operator==(const CostRequest&, const CostRequest&) = default;
};

struct CostResponse {
  struct Point {
    std::int64_t n = 0;
    cost::AreaEstimate area;
    cost::ConfigBitsEstimate config_bits;

    friend bool operator==(const Point&, const Point&) = default;
  };
  std::vector<Point> points;

  friend bool operator==(const CostResponse&, const CostResponse&) = default;
};

/// Evaluate a whole (n x lut_budget x objective) design-space grid
/// (explore::sweep).  The engine runs it as one task: the grid's factors
/// (its row and LUT-budget winners), then one expansion of the points
/// and one of the Pareto front.  Results are bit-identical to the
/// sequential explore::sweep().
struct SweepRequest {
  explore::SweepGrid grid;

  friend bool operator==(const SweepRequest&, const SweepRequest&) = default;
};

struct SweepResponse {
  explore::SweepResult result;

  friend bool operator==(const SweepResponse&, const SweepResponse&) = default;
};

/// Evaluate a Monte-Carlo degradation curve (fault::evaluate_curve) for
/// one machine class over a fault-rate axis.  Unlike a SweepRequest, it
/// is chunk-parallelised: submit() splits the (rate x trial) cell range
/// across the worker pool and the last chunk reduces the curve, with
/// results bit-identical to the sequential fault::evaluate_curve() —
/// each trial's RNG stream derives from its flat cell index alone.
struct FaultSweepRequest {
  fault::CurveSpec spec;

  friend bool operator==(const FaultSweepRequest&,
                         const FaultSweepRequest&) = default;
};

struct FaultSweepResponse {
  fault::CurveResult result;

  friend bool operator==(const FaultSweepResponse&,
                         const FaultSweepResponse&) = default;
};

/// Evaluate one disjoint flat-index range [begin, end) of a sweep grid.
/// This is how the cluster proxy (src/cluster) scatters a SweepRequest
/// across backends: cell indices are over the *normalized* grid, so a
/// chunk depends only on (grid, begin, end) — concatenating the chunk
/// points in index order reproduces the single-server SweepResult
/// bit-identically.
struct SweepChunkRequest {
  explore::SweepGrid grid;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  friend bool operator==(const SweepChunkRequest&,
                         const SweepChunkRequest&) = default;
};

struct SweepChunkResponse {
  std::vector<explore::SweepPoint> points;  ///< cells [begin, end)
  std::uint64_t candidate_classes = 0;

  friend bool operator==(const SweepChunkResponse&,
                         const SweepChunkResponse&) = default;
};

/// Evaluate one disjoint (rate x trial) cell range of a degradation
/// curve.  The full spec travels with every chunk because each trial's
/// RNG stream derives from its flat cell index over the whole spec —
/// sub-specs would renumber the cells and break bit-identity.
struct FaultChunkRequest {
  fault::CurveSpec spec;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  friend bool operator==(const FaultChunkRequest&,
                         const FaultChunkRequest&) = default;
};

struct FaultChunkResponse {
  std::vector<fault::TrialOutcome> outcomes;  ///< cells [begin, end)

  friend bool operator==(const FaultChunkResponse&,
                         const FaultChunkResponse&) = default;
};

/// Simulate a workload kernel on the machine a class (or spec) names:
/// lower onto the matching sim:: machine, apply the fault set to the
/// fabric, run deterministically, return cycles/energy/checksum
/// (workload::run_workload end to end).  Specs are classified first; an
/// unclassifiable or non-implementable target is InvalidRequest.
struct SimulateRequest {
  workload::WorkloadSpec workload;
  std::variant<MachineClass, arch::ArchitectureSpec> target;
  workload::RunOptions options;
  /// Faults injected into the fabric before the run (may be empty).
  fault::FaultSet faults;
  /// Input-stream seed; part of the deterministic identity of the run.
  std::uint64_t seed = 0;

  friend bool operator==(const SimulateRequest&,
                         const SimulateRequest&) = default;
};

struct SimulateResponse {
  workload::WorkloadResult result;

  friend bool operator==(const SimulateResponse&,
                         const SimulateResponse&) = default;
};

using Request =
    std::variant<ClassifyRequest, RecommendRequest, CostRequest, SweepRequest,
                 FaultSweepRequest, SweepChunkRequest, FaultChunkRequest,
                 SimulateRequest>;

/// Discriminator used for per-request-type metrics and cache keying.
enum class RequestType : std::uint8_t {
  Classify = 0,
  Recommend = 1,
  Cost = 2,
  Sweep = 3,
  FaultSweep = 4,
  SweepChunk = 5,   ///< wire protocol v2+ only
  FaultChunk = 6,   ///< wire protocol v2+ only
  Simulate = 7,     ///< wire protocol v2+ only
};
inline constexpr std::size_t kRequestTypeCount = 8;

std::string_view to_string(RequestType type);

inline RequestType request_type(const Request& request) {
  return static_cast<RequestType>(request.index());
}

/// Successful payload; monostate while status is not Ok.
using ResponsePayload =
    std::variant<std::monostate, ClassifyResponse, RecommendResponse,
                 CostResponse, SweepResponse, FaultSweepResponse,
                 SweepChunkResponse, FaultChunkResponse, SimulateResponse>;

/// What a submitted query resolves to.  `status` is always meaningful;
/// the payload alternative matches the request type only when status.ok().
///
/// The payload is an immutable object shared with the result cache: a
/// cache hit hands out another reference instead of deep-copying the
/// response (a ClassifyResponse carries a whole ArchitectureSpec; copying
/// it would cost more than some queries).  Null on any non-Ok status.
struct QueryResponse {
  Status status;
  std::shared_ptr<const ResponsePayload> payload;
  bool cache_hit = false;
  /// Submit-to-completion time as observed by the engine (queueing
  /// included); zero for rejected-at-submit responses.
  std::chrono::nanoseconds latency{0};
  /// Precision was shed under load (qos admission Degrade): a sweep or
  /// fault curve answered on a strided subgrid.  The result is
  /// well-formed and self-consistent, just computed from less than the
  /// full request asked for.  Travels the wire as a v2 response
  /// extension.
  bool sampled = false;

  bool ok() const { return status.ok(); }
  const ClassifyResponse* classify() const {
    return payload ? std::get_if<ClassifyResponse>(payload.get()) : nullptr;
  }
  const RecommendResponse* recommend() const {
    return payload ? std::get_if<RecommendResponse>(payload.get()) : nullptr;
  }
  const CostResponse* cost() const {
    return payload ? std::get_if<CostResponse>(payload.get()) : nullptr;
  }
  const SweepResponse* sweep() const {
    return payload ? std::get_if<SweepResponse>(payload.get()) : nullptr;
  }
  const FaultSweepResponse* fault_sweep() const {
    return payload ? std::get_if<FaultSweepResponse>(payload.get()) : nullptr;
  }
  const SweepChunkResponse* sweep_chunk() const {
    return payload ? std::get_if<SweepChunkResponse>(payload.get()) : nullptr;
  }
  const FaultChunkResponse* fault_chunk() const {
    return payload ? std::get_if<FaultChunkResponse>(payload.get()) : nullptr;
  }
  const SimulateResponse* simulate() const {
    return payload ? std::get_if<SimulateResponse>(payload.get()) : nullptr;
  }
};

}  // namespace mpct::service
