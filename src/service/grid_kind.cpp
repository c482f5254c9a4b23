#include "service/grid_kind.hpp"

#include <string>
#include <utility>

namespace mpct::service {

namespace {

/// Keep every second element, always including the first; an axis of
/// fewer than two entries is left alone.
template <typename T>
void stride_axis(std::vector<T>& axis) {
  if (axis.size() < 2) return;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < axis.size(); i += 2) {
    axis[kept++] = std::move(axis[i]);
  }
  axis.resize(kept);
}

}  // namespace

Status GridKind<SweepRequest>::validate(const Input& grid) {
  const explore::SweepGrid g = grid.normalized();
  for (std::int64_t n : g.n_values) {
    if (n <= 0) {
      return Status::invalid_request(
          "sweep: design-point n must be positive, got " + std::to_string(n));
    }
  }
  for (std::int64_t v : g.lut_budgets) {
    if (v <= 0) {
      return Status::invalid_request(
          "sweep: lut_budget must be positive, got " + std::to_string(v));
    }
  }
  return Status::okay();
}

bool GridKind<SweepRequest>::stride(SweepRequest& request) {
  explore::SweepGrid grid = request.grid.normalized();
  const std::size_t before = grid.cell_count();
  stride_axis(grid.n_values);
  stride_axis(grid.lut_budgets);
  if (grid.cell_count() == before) return false;
  request.grid = std::move(grid);
  return true;
}

SweepChunkResponse GridKind<SweepRequest>::chunk_response(
    const Evaluator& evaluator, std::vector<Cell> cells) {
  return {std::move(cells), evaluator.candidate_count()};
}

/// The candidate filter reads only the grid's requirements, never the
/// component library, so the proxy's evaluator reports the same
/// candidate count as any backend's.
SweepResponse GridKind<SweepRequest>::merge(
    const Evaluator& evaluator, std::vector<Cell> cells,
    std::span<const Summary> summaries) {
  SweepResponse payload;
  payload.result.candidate_classes = evaluator.candidate_count();
  payload.result.pareto_front = explore::pareto_front(cells, summaries);
  payload.result.points = std::move(cells);
  return payload;
}

Status GridKind<FaultSweepRequest>::validate(const Input& spec) {
  for (double rate : spec.fault_rates) {
    if (!(rate >= 0.0 && rate <= 1.0)) {
      return Status::invalid_request(
          "fault_sweep: fault rate must be in [0, 1], got " +
          std::to_string(rate));
    }
  }
  if (spec.trials_per_rate <= 0) {
    return Status::invalid_request(
        "fault_sweep: trials_per_rate must be positive, got " +
        std::to_string(spec.trials_per_rate));
  }
  if ((spec.noc_width > 0) != (spec.noc_height > 0)) {
    return Status::invalid_request(
        "fault_sweep: NoC needs both dimensions positive, got " +
        std::to_string(spec.noc_width) + "x" +
        std::to_string(spec.noc_height));
  }
  return Status::okay();
}

bool GridKind<FaultSweepRequest>::stride(FaultSweepRequest& request) {
  fault::CurveSpec spec = request.spec.normalized();
  const std::size_t before = spec.cell_count();
  stride_axis(spec.fault_rates);
  if (spec.trials_per_rate > 1) spec.trials_per_rate /= 2;
  if (spec.cell_count() == before) return false;
  request.spec = std::move(spec);
  return true;
}

FaultChunkResponse GridKind<FaultSweepRequest>::chunk_response(
    const Evaluator&, std::vector<Cell> cells) {
  return {std::move(cells)};
}

FaultSweepResponse GridKind<FaultSweepRequest>::merge(
    const Evaluator& evaluator, std::vector<Cell> cells,
    std::span<const Summary>) {
  FaultSweepResponse payload;
  payload.result.spec = evaluator.spec();
  payload.result.points = evaluator.finalize(cells);
  return payload;
}

}  // namespace mpct::service
