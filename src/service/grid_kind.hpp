#pragma once

#include <span>
#include <type_traits>
#include <vector>

#include "explore/sweep.hpp"
#include "fault/degradation_curve.hpp"
#include "service/request.hpp"
#include "service/status.hpp"

namespace mpct::service {

/// Kernel policy of one grid-job kind, keyed by its request type.  A
/// grid job splits a flat cell range into chunks, evaluates each chunk
/// into its own slice of a result vector and merges the slices once.
/// The engine's chunked jobs and its inline and chunk execution, and
/// the cluster proxy's scatter/gather, are each written once over this
/// policy; everything that differs between a design-space sweep and a
/// fault curve lives here:
///
///  * `type` / `chunk_type`: request-type tags (cache key prefix,
///    latency metrics, error text);
///  * `chunk_span` / `merge_span` / `scatter_span`: static span names;
///  * `Evaluator`: built from the request's input and a component
///    library; exposes cell_count(), row_cells() (the chunk grain) and
///    evaluate_range(begin, end, Cell*);
///  * `Summary`: what each chunk folds from its own cells while they
///    are cache-hot (add(std::span<const Cell>)), one per chunk;
///  * validate(), stride() (admission Degrade), chunk_response() and
///    merge() (the one merge the engine's completion, its inline path
///    and the proxy's gather all call, with every chunk's summary).
template <typename GridRequest>
struct GridKind;

template <typename T>
inline constexpr bool is_grid_request_v =
    std::is_same_v<T, SweepRequest> || std::is_same_v<T, FaultSweepRequest>;

template <>
struct GridKind<SweepRequest> {
  using Input = explore::SweepGrid;
  using Evaluator = explore::SweepEvaluator;
  using Cell = explore::SweepPoint;
  using Summary = explore::FrontSummary;
  using ChunkRequest = SweepChunkRequest;
  using ChunkResponse = SweepChunkResponse;
  static constexpr RequestType type = RequestType::Sweep;
  static constexpr RequestType chunk_type = RequestType::SweepChunk;
  static constexpr const char* chunk_span = "sweep.chunk";
  static constexpr const char* merge_span = "sweep.merge";
  static constexpr const char* scatter_span = "proxy.scatter_sweep";

  static const Input& input(const SweepRequest& r) { return r.grid; }
  static const Input& input(const ChunkRequest& r) { return r.grid; }
  static const std::vector<Cell>& cells(const ChunkResponse& r) {
    return r.points;
  }

  /// Every n and LUT budget must be positive.
  static Status validate(const Input& grid);
  /// Admission Degrade: keep every second n and LUT value.  True when
  /// the grid shrank.
  static bool stride(SweepRequest& request);
  static ChunkResponse chunk_response(const Evaluator& evaluator,
                                      std::vector<Cell> cells);
  /// Moves the points in, combines the chunks' front summaries (exact
  /// in any order: see explore::FrontSummary), filters the points once
  /// into the Pareto front and reports the candidate count.
  static SweepResponse merge(const Evaluator& evaluator,
                             std::vector<Cell> cells,
                             std::span<const Summary> summaries);
};

template <>
struct GridKind<FaultSweepRequest> {
  using Input = fault::CurveSpec;
  using Evaluator = fault::CurveEvaluator;
  using Cell = fault::TrialOutcome;
  /// Outcomes reduce in index order at the merge, so a chunk folds
  /// nothing.
  struct Summary {
    void add(std::span<const Cell>) {}
  };
  using ChunkRequest = FaultChunkRequest;
  using ChunkResponse = FaultChunkResponse;
  static constexpr RequestType type = RequestType::FaultSweep;
  static constexpr RequestType chunk_type = RequestType::FaultChunk;
  static constexpr const char* chunk_span = "fault.chunk";
  static constexpr const char* merge_span = "fault.merge";
  static constexpr const char* scatter_span = "proxy.scatter_fault";

  static const Input& input(const FaultSweepRequest& r) { return r.spec; }
  static const Input& input(const ChunkRequest& r) { return r.spec; }
  static const std::vector<Cell>& cells(const ChunkResponse& r) {
    return r.outcomes;
  }

  /// Rates in [0, 1], positive trials, and both NoC dimensions or none.
  static Status validate(const Input& spec);
  /// Admission Degrade: keep every second rate at half the trials.
  /// True when the curve shrank.
  static bool stride(FaultSweepRequest& request);
  static ChunkResponse chunk_response(const Evaluator& evaluator,
                                      std::vector<Cell> cells);
  /// The sequential index-order reduction (CurveEvaluator::finalize).
  /// It reads no component-library state, so any evaluator of the same
  /// spec merges any backend's outcomes identically.
  static FaultSweepResponse merge(const Evaluator& evaluator,
                                  std::vector<Cell> cells,
                                  std::span<const Summary> summaries);
};

}  // namespace mpct::service
