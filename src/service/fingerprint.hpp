#pragma once

#include <cstdint>
#include <string_view>
#include <type_traits>
#include <variant>

#include "service/request.hpp"

namespace mpct::service {

/// 64-bit canonical request hash used as the result-cache key and the
/// cluster's ring key.
///
/// Two requests that would produce byte-identical responses (under one
/// engine, i.e. one component library) hash equal; the hash walks every
/// field of the request's wire schema (service/schema.hpp), the same
/// field list the wire codec encodes, so a change to any count,
/// connectivity cell, requirement, or estimate option changes the key.
/// ADL-text classify requests are keyed on the raw text — two textual
/// spellings of the same spec may occupy two cache slots, which costs a
/// duplicate entry but never a wrong answer.
///
/// Fingerprints are process-local cache keys: the word-at-a-time mixing
/// makes them endianness-dependent, so they must not be persisted or
/// compared across machines or library versions.
using Fingerprint = std::uint64_t;

/// Word-at-a-time hasher: each 64-bit word passes the splitmix64
/// finaliser (full avalanche) and is then folded into the state with an
/// FNV-style xor-multiply.  Every mix() call first folds in the value's
/// byte width, so adjacent fields cannot alias ("ab"+"c" vs "a"+"bc").
class FingerprintBuilder {
 public:
  FingerprintBuilder& mix_bytes(const void* data, std::size_t size);
  FingerprintBuilder& mix(std::string_view text);
  FingerprintBuilder& mix(std::uint64_t value);
  FingerprintBuilder& mix(std::int64_t value);
  FingerprintBuilder& mix(int value);
  FingerprintBuilder& mix(bool value);
  FingerprintBuilder& mix(double value);

  Fingerprint value() const { return hash_; }

 private:
  static constexpr Fingerprint kOffsetBasis = 0xcbf29ce484222325ULL;
  Fingerprint hash_ = kOffsetBasis;
};

template <class T, class Variant>
struct IsAlternativeOf : std::false_type {};
template <class T, class... Ts>
struct IsAlternativeOf<T, std::variant<Ts...>>
    : std::bool_constant<(std::is_same_v<T, Ts> || ...)> {};

/// One of the eight request types a Request holds.
template <class T>
concept RequestAlternative = IsAlternativeOf<T, Request>::value;

/// Key for a whole request: the request-type tag first, so the eight
/// request types cannot collide with each other, then every field in
/// wire order.
Fingerprint fingerprint(const Request& request);

/// The same key for one request type, without copying it into a Request
/// — fingerprint(r) == fingerprint(Request(r)) for every r.  The grid
/// path keys its SweepRequest / FaultSweepRequest this way, so inline and
/// chunk-parallel submissions share cache entries by construction.
template <RequestAlternative R>
Fingerprint fingerprint(const R& request);

}  // namespace mpct::service
