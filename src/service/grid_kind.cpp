#include "service/grid_kind.hpp"

#include <algorithm>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "service/schema.hpp"

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

/// @p unit x each of @p factors, or nullopt past the range of size_t.
std::optional<std::size_t> product(std::size_t unit,
                                   std::initializer_list<std::size_t> factors) {
  for (const std::size_t factor : factors) {
    if (__builtin_mul_overflow(unit, factor, &unit)) return std::nullopt;
  }
  return unit;
}

}  // namespace

Status GridKind<SweepRequest>::validate(const Input& grid) {
  // The normalized axes, without copying them: an empty one is its base.
  const auto axis = [](const std::vector<std::int64_t>& values,
                       const std::int64_t& base) {
    return values.empty() ? std::span(&base, 1) : std::span(values);
  };
  for (std::int64_t n : axis(grid.n_values, grid.base.n)) {
    if (n <= 0) {
      return Status::invalid_request(
          "sweep: design-point n must be positive, got " + std::to_string(n));
    }
  }
  for (std::int64_t v : axis(grid.lut_budgets, grid.base.lut_budget)) {
    if (v <= 0) {
      return Status::invalid_request(
          "sweep: lut_budget must be positive, got " + std::to_string(v));
    }
  }
  // Every cell is one point of the answer, so a grid whose points alone
  // outgrow a frame cannot be answered, whatever the version.
  const auto size = [](std::size_t n) { return std::max<std::size_t>(n, 1); };
  const std::size_t n = size(grid.n_values.size());
  const std::size_t v = size(grid.lut_budgets.size());
  const std::size_t o = size(grid.objectives.size());
  const std::optional<std::size_t> bytes =
      product(schema::min_bytes<explore::SweepPoint>(), {n, v, o});
  if (!bytes || *bytes > kMaxPayloadBytes) {
    return Status::invalid_request(
        "sweep: " + std::to_string(n) + " x " + std::to_string(v) + " x " +
        std::to_string(o) + " cells cannot fit one " +
        std::to_string(kMaxPayloadBytes) + "-byte answer");
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

GridKind<SweepRequest>::Run::Run(const Input& grid,
                                 const cost::ComponentLibrary& library)
    : evaluator_(grid, library) {
  response_.result.candidate_classes = evaluator_.candidate_count();
  // The points are reserved here, on the submitting thread, and the
  // front is allocated by the worker in finish(), so the two 1.8 MB
  // blocks of a 32,768-cell sweep come from two glibc arenas.  One
  // thread allocating and freeing both can cross its arena's dynamic
  // trim threshold and fault them in again every time, as a
  // single-thread explore::sweep() does (878 minor faults per call).
  // This placement measured 0.33-0.49 faults per sweep on a 2-worker
  // engine with two submitters, against 0.41-1.35 with both vectors
  // allocated by the worker (docs/PERF.md).
  response_.result.points.reserve(evaluator_.cell_count());
}

void GridKind<SweepRequest>::Run::evaluate(std::size_t, std::size_t) {
  factors_ = evaluator_.evaluate_all(response_.result.points);
}

SweepResponse GridKind<SweepRequest>::Run::finish() {
  response_.result.pareto_front = evaluator_.front(factors_);
  return std::move(response_);
}

/// The candidate filter reads only the grid's requirements, never the
/// component library, so the proxy's shape reports the same candidate
/// count as any backend's evaluator.
SweepResponse GridKind<SweepRequest>::merge(const Gather& shape,
                                            std::vector<Cell> cells) {
  SweepResponse payload;
  payload.result.candidate_classes = shape.candidate_count();
  payload.result.pareto_front = explore::pareto_front(cells);
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
  const std::optional<std::size_t> trials = product(
      static_cast<std::size_t>(spec.trials_per_rate),
      {spec.fault_rates.empty() ? 1 : spec.fault_rates.size()});
  if (!trials || *trials > kMaxTrials) {
    return Status::invalid_request(
        "fault_sweep: " +
        std::to_string(spec.fault_rates.empty() ? 1
                                                : spec.fault_rates.size()) +
        " rates x " + std::to_string(spec.trials_per_rate) +
        " trials exceed the " + std::to_string(kMaxTrials) + "-trial cap");
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

GridKind<FaultSweepRequest>::Run::Run(const Input& spec,
                                      const cost::ComponentLibrary& library)
    : evaluator_(spec, library), outcomes_(evaluator_.cell_count()) {}

FaultSweepResponse GridKind<FaultSweepRequest>::merge(
    const Gather& evaluator, std::vector<Cell> cells) {
  FaultSweepResponse payload;
  payload.result.spec = evaluator.spec();
  payload.result.points = evaluator.finalize(cells);
  return payload;
}

}  // namespace mpct::service
