#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace mpct::wire {

/// Typed decode failure.  The decoder never throws and never reads out
/// of bounds: any malformed input — truncated, oversized, wrong magic,
/// hostile length prefix — lands on exactly one of these codes, and the
/// fuzz tests (tests/test_fuzz.cpp) hold that contract under
/// ASan/UBSan.
enum class WireErrorCode : std::uint8_t {
  /// Input ended before the announced structure did.
  Truncated = 1,
  /// Frame does not start with the protocol magic; the stream is not
  /// (or no longer) frame-aligned.
  BadMagic = 2,
  /// Frame carries a protocol version this build does not speak.
  UnsupportedVersion = 3,
  /// Frame kind byte is neither Request nor Response.
  BadFrameKind = 4,
  /// Announced payload length exceeds kMaxPayloadBytes.
  Oversized = 5,
  /// Payload bytes do not decode to the announced structure (bad enum
  /// value, non-0/1 bool, implausible element count, ...).
  Malformed = 6,
  /// Payload decoded cleanly but bytes were left over.
  TrailingData = 7,
};

std::string_view to_string(WireErrorCode code);

struct WireError {
  WireErrorCode code = WireErrorCode::Malformed;
  std::string message;

  /// "malformed: bad Count kind 7".
  std::string to_string() const;

  friend bool operator==(const WireError&, const WireError&) = default;
};

/// Append-only little-endian byte writer.  All multi-byte integers are
/// written LSB-first regardless of host endianness; doubles travel as
/// their IEEE-754 bit pattern, so encode/decode round-trips are
/// bit-identical across conforming hosts.
class Encoder {
 public:
  void u8(std::uint8_t value) { out_.push_back(value); }
  void u16(std::uint16_t value) { put_le(value, 2); }
  void u32(std::uint32_t value) { put_le(value, 4); }
  void u64(std::uint64_t value) { put_le(value, 8); }
  void i32(std::int32_t value) { u32(static_cast<std::uint32_t>(value)); }
  void i64(std::int64_t value) { u64(static_cast<std::uint64_t>(value)); }
  void f64(double value) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    u64(bits);
  }
  void boolean(bool value) { u8(value ? 1 : 0); }
  /// u32 byte length followed by the raw bytes.
  void str(std::string_view text) {
    u32(static_cast<std::uint32_t>(text.size()));
    out_.insert(out_.end(), text.begin(), text.end());
  }
  /// u32 element count (the elements follow via the caller).
  void length(std::size_t count) { u32(static_cast<std::uint32_t>(count)); }

  std::size_t size() const { return out_.size(); }
  /// Overwrite 4 bytes at @p offset with @p value (little-endian) —
  /// used to back-patch the frame header's payload length.
  void patch_u32(std::size_t offset, std::uint32_t value);

  const std::vector<std::uint8_t>& bytes() const { return out_; }
  std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  void put_le(std::uint64_t value, int bytes) {
    // Grow once per field, not once per byte: a byte store may alias
    // the vector's own pointers, so per-byte push_backs reload and
    // re-check them after every byte.
    const std::size_t at = out_.size();
    out_.resize(at + static_cast<std::size_t>(bytes));
    std::uint8_t* le = out_.data() + at;
    for (int i = 0; i < bytes; ++i) {
      le[i] = static_cast<std::uint8_t>(value >> (8 * i));
    }
  }

  std::vector<std::uint8_t> out_;
};

/// Bounds-checked little-endian reader over a caller-owned buffer.
/// Every read validates the remaining size first; on failure the
/// decoder latches the first error, returns a zero value, and all
/// subsequent reads become no-ops — callers check ok() once at the end
/// instead of after every field.
class Decoder {
 public:
  Decoder(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  bool ok() const { return !failed_; }
  const WireError& error() const { return error_; }
  std::size_t remaining() const { return size_ - pos_; }
  std::size_t position() const { return pos_; }

  /// Latch @p code/@p message as the decode outcome (first failure
  /// wins) and disable further reads.
  void fail(WireErrorCode code, std::string message);

  std::uint8_t u8() { return static_cast<std::uint8_t>(get_le(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(get_le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(get_le(4)); }
  std::uint64_t u64() { return get_le(8); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double value = 0;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }
  /// A bool must be exactly 0 or 1 — anything else is Malformed, so a
  /// bit-flipped frame cannot smuggle an out-of-domain bool through.
  bool boolean();
  std::string str();

  /// Element-count prefix with a plausibility bound: the announced
  /// count times @p min_element_bytes must fit in the remaining input,
  /// so a hostile length can never drive a large allocation or an
  /// overread.
  std::size_t length(std::size_t min_element_bytes);

  /// Fail with TrailingData when bytes remain after a full decode.
  void expect_end();

 private:
  std::uint64_t get_le(int bytes);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  WireError error_;
};

}  // namespace mpct::wire
