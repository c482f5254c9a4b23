#pragma once

#include <type_traits>
#include <vector>

#include "core/range_split.hpp"
#include "explore/sweep.hpp"
#include "fault/degradation_curve.hpp"
#include "service/request.hpp"
#include "service/status.hpp"

namespace mpct::service {

/// Kernel policy of one grid-job kind, keyed by its request type.  The
/// engine's grid jobs, its inline and chunk execution, and the cluster
/// proxy's scatter/gather are each written once over this policy;
/// everything that differs between a design-space sweep and a fault
/// curve lives here:
///
///  * `type` / `chunk_type`: request-type tags (cache key prefix,
///    latency metrics, error text);
///  * `chunk_span` / `merge_span` / `scatter_span`: static span names;
///  * `Run`: one whole request, built on the submitting thread from its
///    input and a component library.  chunks(parts) lists the cell
///    ranges the engine queues as tasks (a sweep is one, a curve up to
///    @p parts), evaluate(begin, end) runs one of them, and finish()
///    builds the response once all have run.  The engine's queued jobs
///    and its inline path both run it;
///  * `Evaluator` / chunk_response(): a chunk request's cells
///    (evaluate_range(begin, end, Cell*)) and its answer;
///  * `Gather` and merge(): the proxy's gather.  `Gather` is built from
///    the input and exposes cell_count() and row_cells() (the chunk
///    grain); merge() builds the response from every chunk's cells,
///    concatenated in index order;
///  * validate() and stride() (admission Degrade).
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
  using Gather = explore::SweepShape;
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

  /// A whole sweep as one task: evaluate() computes the grid's factors
  /// and expands every cell into the points, finish() expands the Pareto
  /// front at its exact size (explore::SweepEvaluator).
  class Run {
   public:
    Run(const Input& grid, const cost::ComponentLibrary& library);
    std::vector<CellRange> chunks(std::size_t) const {
      return {{0, evaluator_.cell_count()}};
    }
    void evaluate(std::size_t begin, std::size_t end);
    SweepResponse finish();

   private:
    explore::SweepEvaluator evaluator_;
    explore::SweepFactors factors_;
    SweepResponse response_;
  };

  /// Every n and LUT budget must be positive, and the answer's cells
  /// must fit one frame (kMaxPayloadBytes).
  static Status validate(const Input& grid);
  /// Admission Degrade: keep every second n and LUT value.  True when
  /// the grid shrank.
  static bool stride(SweepRequest& request);
  static ChunkResponse chunk_response(const Evaluator& evaluator,
                                      std::vector<Cell> cells);
  /// Folds the Pareto front once over the gathered points
  /// (explore::pareto_front), moves them in and reports the candidate
  /// count.
  static SweepResponse merge(const Gather& shape, std::vector<Cell> cells);
};

template <>
struct GridKind<FaultSweepRequest> {
  using Input = fault::CurveSpec;
  using Evaluator = fault::CurveEvaluator;
  using Cell = fault::TrialOutcome;
  /// The merge reduces with the evaluator (CurveEvaluator::finalize).
  using Gather = fault::CurveEvaluator;
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

  /// A curve as chunks of whole lane blocks, each writing its own slice
  /// of the pre-sized outcomes; finish() reduces them in index order.
  class Run {
   public:
    Run(const Input& spec, const cost::ComponentLibrary& library);
    std::vector<CellRange> chunks(std::size_t parts) const {
      return split_range(evaluator_.cell_count(), parts,
                         evaluator_.row_cells());
    }
    void evaluate(std::size_t begin, std::size_t end) {
      evaluator_.evaluate_range(begin, end, outcomes_.data() + begin);
    }
    FaultSweepResponse finish() {
      return merge(evaluator_, std::move(outcomes_));
    }

   private:
    fault::CurveEvaluator evaluator_;
    std::vector<Cell> outcomes_;
  };

  /// Most trials (fault rates x trials per rate) one curve may ask for:
  /// 2^20 trials hold 32 MiB of per-trial outcomes, 390x the 2,688-trial
  /// curves the batch benchmark runs.
  static constexpr std::size_t kMaxTrials = std::size_t{1} << 20;

  /// Rates in [0, 1], positive trials, at most kMaxTrials in all, and
  /// both NoC dimensions or none.
  static Status validate(const Input& spec);
  /// Admission Degrade: keep every second rate at half the trials.
  /// True when the curve shrank.
  static bool stride(FaultSweepRequest& request);
  static ChunkResponse chunk_response(const Evaluator& evaluator,
                                      std::vector<Cell> cells);
  /// The sequential index-order reduction (CurveEvaluator::finalize).
  /// It reads no component-library state, so any evaluator of the same
  /// spec merges any backend's outcomes identically.
  static FaultSweepResponse merge(const Gather& evaluator,
                                  std::vector<Cell> cells);
};

}  // namespace mpct::service
