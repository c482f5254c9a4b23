#pragma once

#include <algorithm>
#include <cstddef>
#include <thread>
#include <vector>

namespace mpct {

/// One contiguous cell range [begin, end) of a flat grid.
struct CellRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  friend bool operator==(const CellRange&, const CellRange&) = default;
};

/// Split [0, cells) into at most @p parts contiguous, non-empty,
/// near-equal ranges in index order.  Every boundary except the last
/// lands on a multiple of @p grain (0 counts as 1), so a grid evaluator
/// runs its batch kernel over whole rows.  This is the one chunk rule
/// of the engine's grid jobs, the cluster proxy's scatter and the
/// library's threaded sweep and curve.
inline std::vector<CellRange> split_range(std::size_t cells,
                                          std::size_t parts,
                                          std::size_t grain) {
  grain = std::max<std::size_t>(grain, 1);
  // Past one part per cell the extra parts could only come out empty.
  parts = std::clamp<std::size_t>(parts, 1, std::max<std::size_t>(cells, 1));
  const std::size_t quotient = cells / parts;
  const std::size_t remainder = cells % parts;
  std::vector<CellRange> ranges;
  ranges.reserve(parts);
  std::size_t begin = 0;
  for (std::size_t k = 1; k <= parts; ++k) {
    // floor(cells * k / parts), without the overflow of cells * k.
    const std::size_t even = quotient * k + remainder * k / parts;
    const std::size_t end =
        k == parts ? cells
                   : std::min(cells, (even + grain - 1) / grain * grain);
    if (end <= begin) continue;
    ranges.push_back({begin, end});
    begin = end;
  }
  return ranges;
}

/// Run @p body(part, begin, end) over split_range(cells, threads, grain),
/// one scoped thread per range, and join them; `part` numbers the ranges
/// from 0 and stays below max(threads, 1), so a caller can give each
/// range its own result slot.  @p threads is clamped to the core count,
/// since a CPU-bound kernel gains nothing from oversubscription; 0 or 1
/// runs body(0, 0, cells) on the caller's thread.
template <typename Body>
void parallel_ranges(std::size_t cells, unsigned threads, std::size_t grain,
                     const Body& body) {
  const unsigned workers =
      std::min(threads, std::max(1u, std::thread::hardware_concurrency()));
  if (workers <= 1) {
    body(std::size_t{0}, std::size_t{0}, cells);
    return;
  }
  const std::vector<CellRange> ranges = split_range(cells, workers, grain);
  std::vector<std::thread> pool;
  for (std::size_t part = 0; part < ranges.size(); ++part) {
    pool.emplace_back([&body, part, range = ranges[part]] {
      body(part, range.begin, range.end);
    });
  }
  for (std::thread& thread : pool) thread.join();
}

}  // namespace mpct
