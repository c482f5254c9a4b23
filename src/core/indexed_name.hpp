#pragma once

#include <string>
#include <string_view>

namespace mpct {

/// @p stem followed by the decimal @p index ("a3", "q0", "n17"): the
/// port, register and node names the simulators and their callers
/// build.  Appends instead of `"stem" + std::to_string(index)`, which
/// GCC 12 misreports under -Wrestrict in optimised builds.
inline std::string indexed_name(std::string_view stem, long long index) {
  std::string name(stem);
  name += std::to_string(index);
  return name;
}

}  // namespace mpct
