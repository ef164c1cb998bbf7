#include "service/result_store.hpp"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "common/error.hpp"
#include "common/varint.hpp"
#include "service/wire.hpp"

namespace edsim::service {

namespace {

constexpr std::uint8_t kMagic[4] = {'E', 'D', 'R', 'S'};
constexpr std::size_t kHeaderBytes = sizeof kMagic + 1;

[[noreturn]] void throw_format(const std::string& what) {
  throw Error(ErrorKind::kStoreFormat, 0, what);
}

/// One encoded record: varint length prefix + the sealed snapshot blob
/// holding (key, metrics). The blob's own envelope checksum is the
/// per-record integrity check.
std::vector<std::uint8_t> encode_record(std::uint64_t key,
                                        const core::Metrics& m) {
  SnapshotWriter w;
  w.u64(key);
  encode_metrics(w, m);
  const std::vector<std::uint8_t> blob = w.seal();
  std::vector<std::uint8_t> rec;
  rec.reserve(blob.size() + 5);
  encode_varint(rec, blob.size());
  rec.insert(rec.end(), blob.begin(), blob.end());
  return rec;
}

/// Write all `n` bytes to `fd`; false on the first error (EFBIG, ENOSPC,
/// ...), possibly after a partial write.
bool write_all(int fd, const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t got = ::write(fd, p, n);
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

}  // namespace

ResultStore::ResultStore(std::string path) : path_(std::move(path)) {
  open_or_create();
}

ResultStore::~ResultStore() {
  if (fd_ >= 0) ::close(fd_);
}

void ResultStore::open_or_create() {
  namespace fs = std::filesystem;

  std::vector<std::uint8_t> bytes;
  if (fs::exists(path_)) {
    std::ifstream in(path_, std::ios::binary);
    if (!in) throw_format("result store unreadable: " + path_);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }

  std::size_t valid_end = kHeaderBytes;
  if (bytes.empty()) {
    // Fresh (or zero-byte) store: write the header below.
    valid_end = 0;
  } else {
    if (bytes.size() < kHeaderBytes ||
        std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
      throw_format("bad result-store magic (want EDRS): " + path_);
    }
    if (bytes[sizeof kMagic] != kResultStoreVersion) {
      throw_format("unsupported result-store version " +
                   std::to_string(bytes[sizeof kMagic]) + " (reader supports " +
                   std::to_string(kResultStoreVersion) + ")");
    }
    std::size_t off = kHeaderBytes;
    while (off < bytes.size()) {
      std::uint64_t blob_len = 0;
      std::size_t cursor = off;
      if (!decode_varint(bytes.data(), bytes.size(), cursor, blob_len) ||
          blob_len > bytes.size() - cursor) {
        // Length prefix runs past EOF: can only be a torn final append.
        ++stats_.recovered_tail_records;
        break;
      }
      try {
        SnapshotReader r(bytes.data() + cursor,
                         static_cast<std::size_t>(blob_len));
        const std::uint64_t key = r.u64();
        core::Metrics m = decode_metrics(r);
        r.expect_end();
        map_[key] = std::move(m);  // last append wins
      } catch (const Error&) {
        if (cursor + blob_len == bytes.size()) {
          // The damaged record is the file's final bytes — a crash mid-
          // append. Drop it and truncate back to the last good boundary.
          ++stats_.recovered_tail_records;
          break;
        }
        // Damage with intact records behind it is not a torn append;
        // refuse the file rather than silently dropping data.
        throw_format("result store record corrupt mid-file at offset " +
                     std::to_string(off) + ": " + path_);
      }
      off = cursor + static_cast<std::size_t>(blob_len);
      valid_end = off;
    }
    stats_.bytes_read = bytes.size();
    stats_.entries = map_.size();
  }

  // Truncate any torn tail away (or start a fresh file), then append
  // from the clean boundary.
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
  if (fd_ < 0) throw_format("result store unwritable: " + path_);
  std::uint8_t header[kHeaderBytes];
  std::memcpy(header, kMagic, sizeof kMagic);
  header[sizeof kMagic] = kResultStoreVersion;
  if (::ftruncate(fd_, static_cast<off_t>(valid_end)) != 0 ||
      (valid_end == 0 && !write_all(fd_, header, sizeof header))) {
    ::close(fd_);
    fd_ = -1;
    throw_format("result store unwritable: " + path_);
  }
  end_ = valid_end == 0 ? kHeaderBytes : valid_end;
}

bool ResultStore::find(std::uint64_t key, core::Metrics* out) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  *out = it->second;
  return true;
}

void ResultStore::put(std::uint64_t key, const core::Metrics& m) {
  std::lock_guard<std::mutex> lock(mu_);
  if (map_.contains(key)) return;  // idempotent re-put
  const std::vector<std::uint8_t> rec = encode_record(key, m);
  // One append: a crash mid-write leaves at worst a torn tail, which the
  // next open() recovers. A write that fails here is cut back to the last
  // boundary at once, so a later append never lands behind torn bytes.
  if (!write_all(fd_, rec.data(), rec.size())) {
    const int err = errno;
    if (::ftruncate(fd_, static_cast<off_t>(end_)) != 0) {
      ::close(fd_);
      fd_ = -1;  // later puts fail instead of appending behind torn bytes
    }
    throw_format("result store append failed (" +
                 std::string(std::strerror(err)) + "): " + path_);
  }
  end_ += rec.size();
  map_.emplace(key, m);
  stats_.entries = map_.size();
  stats_.bytes_written += rec.size();
}

core::ResultStoreStats ResultStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t ResultStore::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

}  // namespace edsim::service
