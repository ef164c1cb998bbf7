#include "common/snapshot.hpp"

#include <cstring>

#include "common/error.hpp"
#include "common/varint.hpp"

namespace edsim {

namespace {

constexpr std::uint8_t kMagic[4] = {'E', 'D', 'S', 'S'};
constexpr std::size_t kChecksumBytes = 8;

/// FNV-1a over the payload with a SplitMix64-style finalizer — the same
/// construction ContentHasher uses. Not cryptographic; it only needs to
/// catch accidental corruption (flips, truncation) deterministically.
std::uint64_t payload_checksum(const std::uint8_t* p, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

[[noreturn]] void throw_format(const std::string& what) {
  throw Error(ErrorKind::kSnapshotFormat, 0, what);
}

}  // namespace

// --- SnapshotWriter ---------------------------------------------------------

void SnapshotWriter::u64(std::uint64_t v) { encode_varint(buf_, v); }

void SnapshotWriter::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(bits >> (i * 8)));
  }
}

void SnapshotWriter::bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  buf_.insert(buf_.end(), b, b + n);
}

void SnapshotWriter::str(const std::string& s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

std::vector<std::uint8_t> SnapshotWriter::seal() const {
  std::vector<std::uint8_t> out;
  out.reserve(sizeof kMagic + 1 + buf_.size() + kChecksumBytes);
  out.insert(out.end(), kMagic, kMagic + sizeof kMagic);
  out.push_back(kSnapshotVersion);
  out.insert(out.end(), buf_.begin(), buf_.end());
  const std::uint64_t sum = payload_checksum(buf_.data(), buf_.size());
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(sum >> (i * 8)));
  }
  return out;
}

// --- SnapshotReader ---------------------------------------------------------

SnapshotReader::SnapshotReader(const std::uint8_t* data, std::size_t n)
    : data_(data), off_(0), end_(0) {
  if (n < sizeof kMagic + 1 + kChecksumBytes) {
    throw_format("snapshot truncated below the envelope minimum");
  }
  if (std::memcmp(data, kMagic, sizeof kMagic) != 0) {
    throw_format("bad snapshot magic (want EDSS)");
  }
  const std::uint8_t version = data[sizeof kMagic];
  if (version != kSnapshotVersion) {
    throw_format("unsupported snapshot version " + std::to_string(version) +
                 " (reader supports " + std::to_string(kSnapshotVersion) +
                 ")");
  }
  off_ = sizeof kMagic + 1;
  end_ = n - kChecksumBytes;
  std::uint64_t stored = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    stored |= static_cast<std::uint64_t>(data[end_ + i]) << (i * 8);
  }
  const std::uint64_t computed = payload_checksum(data + off_, end_ - off_);
  if (stored != computed) {
    throw_format("snapshot checksum mismatch (corrupt or truncated payload)");
  }
}

std::uint64_t SnapshotReader::u64() {
  std::uint64_t v = 0;
  if (!decode_varint(data_, end_, off_, v)) {
    throw_format("snapshot varint truncated or overlong");
  }
  return v;
}

std::uint32_t SnapshotReader::u32() {
  const std::uint64_t v = u64();
  if (v > 0xffffffffull) throw_format("snapshot field exceeds 32 bits");
  return static_cast<std::uint32_t>(v);
}

double SnapshotReader::f64() {
  if (end_ - off_ < 8) throw_format("snapshot double truncated");
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    bits |= static_cast<std::uint64_t>(data_[off_ + i]) << (i * 8);
  }
  off_ += 8;
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

bool SnapshotReader::boolean() {
  const std::uint64_t v = u64();
  if (v > 1) throw_format("snapshot bool out of range");
  return v != 0;
}

void SnapshotReader::bytes(void* p, std::size_t n) {
  if (end_ - off_ < n) throw_format("snapshot byte run truncated");
  std::memcpy(p, data_ + off_, n);
  off_ += n;
}

std::string SnapshotReader::str() {
  const std::uint64_t n = u64();
  if (n > end_ - off_) throw_format("snapshot string truncated");
  std::string s(reinterpret_cast<const char*>(data_ + off_),
                static_cast<std::size_t>(n));
  off_ += static_cast<std::size_t>(n);
  return s;
}

void SnapshotReader::expect_end() const {
  if (off_ != end_) throw_format("snapshot payload has trailing bytes");
}

void SnapshotReader::fail(const std::string& what) const {
  throw_format(what);
}

}  // namespace edsim
