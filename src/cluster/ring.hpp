#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "service/fingerprint.hpp"

namespace mpct::cluster {

/// One backend server address.
struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  std::string to_string() const;

  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

/// Consistent-hash ring over a fixed endpoint list.
///
/// Each endpoint is hashed onto the ring at kVirtualNodes positions
/// (vnode hashes mix host, port and the vnode index through the same
/// FingerprintBuilder the request fingerprints use), which evens out the
/// key-space share each endpoint owns.  Keys are canonical request
/// fingerprints (service::fingerprint), so identical requests from any
/// client land on the same endpoint — and therefore hit the same
/// server-side result cache.
///
/// The ring is immutable after construction; liveness is layered on top
/// (ClusterClient skips Down endpoints by walking ring successors), so
/// a node going down only moves *its* keys, which is the point of
/// consistent hashing.
class HashRing {
 public:
  /// Ring positions per endpoint: enough for even key-space shares at a
  /// still tiny sorted array.
  static constexpr std::size_t kVirtualNodes = 64;

  HashRing() = default;
  explicit HashRing(const std::vector<Endpoint>& endpoints);

  std::size_t size() const { return endpoint_count_; }
  bool empty() const { return endpoint_count_ == 0; }

  /// Endpoint index owning @p key: the first vnode clockwise from it.
  std::size_t owner(service::Fingerprint key) const;

  /// Preference order for @p key: the owner, then each distinct endpoint
  /// in ring-successor order.  Every endpoint appears exactly once; the
  /// caller uses position 1, 2, ... as failover / hedge replicas.
  void ordered(service::Fingerprint key, std::vector<std::size_t>& out) const;

 private:
  /// (vnode hash, endpoint index), sorted by hash.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> points_;
  std::size_t endpoint_count_ = 0;
};

}  // namespace mpct::cluster
