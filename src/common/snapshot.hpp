#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace edsim {

/// Version byte of the snapshot envelope. Bump on any layout change; the
/// reader rejects mismatches with Error{kSnapshotFormat} instead of
/// misinterpreting bytes.
inline constexpr std::uint8_t kSnapshotVersion = 2;

/// Append-only encoder for simulator-state snapshots. Integers are LEB128
/// varints (the `.edtrc` idiom from common/varint.hpp); doubles are their
/// 8-byte little-endian bit pattern so restore is bit-exact. `seal()`
/// wraps the payload in the versioned envelope:
///
///   "EDSS" magic | version byte | payload | 8-byte LE FNV checksum
///
/// The trailing checksum covers the payload, so every single-byte flip or
/// truncation of a sealed blob is detected up front by SnapshotReader —
/// corrupt input yields a structured error, never undefined behaviour.
class SnapshotWriter {
 public:
  void u64(std::uint64_t v);
  void u32(std::uint32_t v) { u64(v); }
  void f64(double v);
  void boolean(bool v) { u64(v ? 1u : 0u); }
  void bytes(const void* p, std::size_t n);
  void str(const std::string& s);

  const std::vector<std::uint8_t>& payload() const { return buf_; }

  /// The payload wrapped in the magic/version/checksum envelope.
  std::vector<std::uint8_t> seal() const;

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked decoder over a sealed snapshot blob. The constructor
/// validates magic, version and checksum; every getter validates its read
/// against the payload end. All failures throw Error{kSnapshotFormat}.
class SnapshotReader {
 public:
  SnapshotReader(const std::uint8_t* data, std::size_t n);
  explicit SnapshotReader(const std::vector<std::uint8_t>& blob)
      : SnapshotReader(blob.data(), blob.size()) {}

  std::uint64_t u64();
  std::uint32_t u32();
  double f64();
  bool boolean();
  void bytes(void* p, std::size_t n);
  std::string str();

  bool at_end() const { return off_ == end_; }
  /// Payload bytes not yet consumed. Loaders bound element counts read
  /// from the stream by it before reserving (count x minimum encoded
  /// record size must fit), so a forged count cannot force a huge
  /// allocation.
  std::size_t remaining() const { return end_ - off_; }
  /// Throw unless the whole payload was consumed (catches layout skew).
  void expect_end() const;

  /// Structured decode failure ("snapshot-format"); loaders call this when
  /// a decoded value is out of range for the receiving object.
  [[noreturn]] void fail(const std::string& what) const;

 private:
  const std::uint8_t* data_;
  std::size_t off_;  ///< cursor into the payload
  std::size_t end_;  ///< payload end (checksum excluded)
};

}  // namespace edsim
