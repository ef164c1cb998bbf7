#include "reliability/ecc.hpp"

#include <bit>

#include "common/error.hpp"

namespace edsim::reliability {

const char* to_string(DecodeStatus s) {
  switch (s) {
    case DecodeStatus::kClean: return "clean";
    case DecodeStatus::kCorrected: return "corrected";
    case DecodeStatus::kDetected: return "detected";
  }
  return "?";
}

SecDed::SecDed(unsigned data_bits) : data_bits_(data_bits) {
  require(data_bits >= 1 && data_bits <= 64,
          "ecc: SEC-DED word must be 1..64 data bits");
  // Smallest r with 2^r >= data + r + 1 (r = 7 for 64 data bits).
  unsigned r = 1;
  while ((1u << r) < data_bits_ + r + 1) ++r;
  hamming_bits_ = r;
  require(hamming_bits_ <= 7, "ecc: check bits exceed the uint8 container");
  codeword_bits_ = data_bits_ + hamming_bits_;

  // Assign data bits to the non-power-of-two code-word positions 1..n.
  unsigned pos = 1;
  for (unsigned i = 0; i < data_bits_; ++i) {
    while (std::has_single_bit(pos)) ++pos;  // skip parity positions
    data_pos_[i] = pos++;
  }
  // Check bit j covers every data bit whose position has bit j set.
  for (unsigned j = 0; j < hamming_bits_; ++j) {
    for (unsigned i = 0; i < data_bits_; ++i) {
      if (data_pos_[i] & (1u << j)) parity_mask_[j] |= 1ull << i;
    }
  }
}

CodeWord SecDed::encode(std::uint64_t data) const {
  if (data_bits_ < 64) data &= (1ull << data_bits_) - 1;
  CodeWord w;
  w.data = data;
  for (unsigned j = 0; j < hamming_bits_; ++j) {
    if (std::popcount(data & parity_mask_[j]) & 1) w.check |= 1u << j;
  }
  // Overall parity over data + hamming bits (even parity).
  const unsigned ones = static_cast<unsigned>(std::popcount(data)) +
                        static_cast<unsigned>(
                            std::popcount(static_cast<unsigned>(w.check)));
  if (ones & 1) w.check |= 1u << hamming_bits_;
  return w;
}

DecodeResult SecDed::decode(const CodeWord& w) const {
  DecodeResult out;
  out.data = w.data;

  unsigned syndrome = 0;
  for (unsigned j = 0; j < hamming_bits_; ++j) {
    unsigned p =
        static_cast<unsigned>(std::popcount(w.data & parity_mask_[j])) & 1u;
    p ^= (w.check >> j) & 1u;
    syndrome |= p << j;
  }
  const unsigned ones =
      static_cast<unsigned>(std::popcount(w.data)) +
      static_cast<unsigned>(std::popcount(static_cast<unsigned>(w.check)));
  const bool parity_error = (ones & 1u) != 0;  // even parity expected

  if (syndrome == 0 && !parity_error) return out;  // clean

  if (parity_error) {
    // Odd number of flips: assume single, locate via syndrome.
    out.status = DecodeStatus::kCorrected;
    if (syndrome == 0) return out;  // the overall parity bit itself flipped
    if (syndrome > codeword_bits_) {
      // Syndrome points outside the code word: actually a multi-bit upset.
      out.status = DecodeStatus::kDetected;
      return out;
    }
    if (std::has_single_bit(syndrome)) return out;  // a hamming check bit
    for (unsigned i = 0; i < data_bits_; ++i) {
      if (data_pos_[i] == syndrome) {
        out.data ^= 1ull << i;
        out.corrected_bit = static_cast<int>(i);
        return out;
      }
    }
    out.status = DecodeStatus::kDetected;  // unreachable for valid codes
    return out;
  }

  // Even number of flips with a nonzero syndrome: double-bit error.
  out.status = DecodeStatus::kDetected;
  return out;
}

}  // namespace edsim::reliability
