#include "cluster/ring.hpp"

#include <algorithm>

namespace mpct::cluster {

std::string Endpoint::to_string() const {
  return host + ":" + std::to_string(port);
}

HashRing::HashRing(const std::vector<Endpoint>& endpoints)
    : endpoint_count_(endpoints.size()) {
  points_.reserve(endpoints.size() * kVirtualNodes);
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    for (std::size_t v = 0; v < kVirtualNodes; ++v) {
      service::FingerprintBuilder b;
      b.mix(endpoints[i].host)
          .mix(static_cast<std::uint64_t>(endpoints[i].port))
          .mix(static_cast<std::uint64_t>(v));
      points_.emplace_back(b.value(), static_cast<std::uint32_t>(i));
    }
  }
  // Ties (two vnodes hashing equal) are broken by endpoint index so the
  // ring order is deterministic across processes.
  std::sort(points_.begin(), points_.end());
}

std::size_t HashRing::owner(service::Fingerprint key) const {
  auto it = std::lower_bound(
      points_.begin(), points_.end(), key,
      [](const auto& point, std::uint64_t k) { return point.first < k; });
  if (it == points_.end()) it = points_.begin();  // wrap past the top
  return it->second;
}

void HashRing::ordered(service::Fingerprint key,
                       std::vector<std::size_t>& out) const {
  out.clear();
  if (points_.empty()) return;
  auto it = std::lower_bound(
      points_.begin(), points_.end(), key,
      [](const auto& point, std::uint64_t k) { return point.first < k; });
  const std::size_t start =
      it == points_.end() ? 0 : static_cast<std::size_t>(it - points_.begin());
  std::vector<char> seen(endpoint_count_, 0);
  for (std::size_t step = 0;
       step < points_.size() && out.size() < endpoint_count_; ++step) {
    const std::uint32_t idx = points_[(start + step) % points_.size()].second;
    if (seen[idx]) continue;
    seen[idx] = 1;
    out.push_back(idx);
  }
}

}  // namespace mpct::cluster
