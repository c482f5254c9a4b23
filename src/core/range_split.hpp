#pragma once

#include <algorithm>
#include <cstddef>
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
/// of the engine's grid jobs and the cluster proxy's scatter.
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

}  // namespace mpct
