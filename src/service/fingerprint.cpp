#include "service/fingerprint.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "service/schema.hpp"

namespace mpct::service {

namespace {

constexpr Fingerprint kPrime = 0x100000001b3ULL;

/// splitmix64 finaliser: full avalanche per 64-bit word, so the builder
/// can consume input a word at a time (~8x fewer multiplies than
/// byte-at-a-time FNV — fingerprinting sits on the cache hit path, where
/// it must stay well below the cost of the query it short-circuits).
constexpr std::uint64_t avalanche(std::uint64_t w) {
  w ^= w >> 30;
  w *= 0xbf58476d1ce4e5b9ULL;
  w ^= w >> 27;
  w *= 0x94d049bb133111ebULL;
  w ^= w >> 31;
  return w;
}

/// Streams a request's schema into one builder: every scalar and enum as
/// one 64-bit word, every string with its length, every optional led by
/// its flag, every list by its size and every variant by its index.
class Hasher : public schema::Visitor<Hasher> {
 public:
  static constexpr bool kReads = false;
  FingerprintBuilder builder;

  template <class T>
  void scalar(T value) {
    if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, double>) {
      builder.mix(value);
    } else if constexpr (std::is_signed_v<T>) {
      builder.mix(static_cast<std::int64_t>(value));
    } else {
      builder.mix(static_cast<std::uint64_t>(value));
    }
  }
  template <class E>
  void enumeration(E value, schema::EnumRange) {
    builder.mix(static_cast<std::uint64_t>(value));
  }
  void text(const std::string& text) { builder.mix(std::string_view(text)); }
  template <class T>
  void optional(const std::optional<T>& value) {
    builder.mix(value.has_value());
    if (value) (*this)(*value);
  }
  template <class L>
  void list(const L& elements) {
    builder.mix(static_cast<std::uint64_t>(elements.size()));
    for (const auto& element : elements) (*this)(element);
  }
  template <class... Ts>
  void variant(const std::variant<Ts...>& value) {
    builder.mix(static_cast<std::uint64_t>(value.index()));
    std::visit([this](const auto& alternative) { (*this)(alternative); },
               value);
  }
};

/// Index of alternative T in Variant: the tag a Variant holding T
/// leads with.
template <class T, class Variant>
inline constexpr std::uint64_t kIndexIn = 0;
template <class T, class... Ts>
inline constexpr std::uint64_t kIndexIn<T, std::variant<Ts...>> = [] {
  constexpr bool matches[] = {std::is_same_v<T, Ts>...};
  return static_cast<std::uint64_t>(
      std::find(std::begin(matches), std::end(matches), true) -
      std::begin(matches));
}();

}  // namespace

FingerprintBuilder& FingerprintBuilder::mix_bytes(const void* data,
                                                  std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  // Fold the length first so variable-width fields cannot alias.
  hash_ = (hash_ ^ avalanche(size)) * kPrime;
  while (size >= 8) {
    std::uint64_t word;
    std::memcpy(&word, bytes, sizeof(word));
    hash_ = (hash_ ^ avalanche(word)) * kPrime;
    bytes += 8;
    size -= 8;
  }
  if (size > 0) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes, size);
    hash_ = (hash_ ^ avalanche(word)) * kPrime;
  }
  return *this;
}

FingerprintBuilder& FingerprintBuilder::mix(std::string_view text) {
  return mix_bytes(text.data(), text.size());
}

FingerprintBuilder& FingerprintBuilder::mix(std::uint64_t value) {
  return mix_bytes(&value, sizeof(value));
}

FingerprintBuilder& FingerprintBuilder::mix(std::int64_t value) {
  return mix(static_cast<std::uint64_t>(value));
}

FingerprintBuilder& FingerprintBuilder::mix(int value) {
  return mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(value)));
}

FingerprintBuilder& FingerprintBuilder::mix(bool value) {
  return mix(static_cast<std::uint64_t>(value ? 1 : 0));
}

FingerprintBuilder& FingerprintBuilder::mix(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return mix(bits);
}

template <RequestAlternative R>
Fingerprint fingerprint(const R& request) {
  Hasher hasher;
  hasher.builder.mix(kIndexIn<R, Request>);
  hasher(request);
  return hasher.builder.value();
}

template Fingerprint fingerprint(const ClassifyRequest&);
template Fingerprint fingerprint(const RecommendRequest&);
template Fingerprint fingerprint(const CostRequest&);
template Fingerprint fingerprint(const SweepRequest&);
template Fingerprint fingerprint(const FaultSweepRequest&);
template Fingerprint fingerprint(const SweepChunkRequest&);
template Fingerprint fingerprint(const FaultChunkRequest&);
template Fingerprint fingerprint(const SimulateRequest&);

Fingerprint fingerprint(const Request& request) {
  return std::visit(
      [](const auto& alternative) { return fingerprint(alternative); },
      request);
}

}  // namespace mpct::service
