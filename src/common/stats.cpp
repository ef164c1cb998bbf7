#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/snapshot.hpp"

namespace edsim {

double Accumulator::stddev() const { return std::sqrt(variance()); }

void Accumulator::merge(const Accumulator& o) {
  flush();
  o.flush();
  if (o.n_ == 0) return;
  if (n_ == 0) {
    *this = o;
    return;
  }
  const double delta = o.mean_ - mean_;
  const auto n = static_cast<double>(n_);
  const auto m = static_cast<double>(o.n_);
  mean_ += delta * m / (n + m);
  m2_ += o.m2_ + delta * delta * n * m / (n + m);
  n_ += o.n_;
  sum_ += o.sum_;
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
}

void Accumulator::save(SnapshotWriter& w) const {
  w.u64(n_);
  w.f64(sum_);
  w.f64(mean_);
  w.f64(m2_);
  w.f64(min_);
  w.f64(max_);
  w.f64(run_x_);
  w.u64(run_k_);
}

void Accumulator::load(SnapshotReader& r) {
  n_ = r.u64();
  sum_ = r.f64();
  mean_ = r.f64();
  m2_ = r.f64();
  min_ = r.f64();
  max_ = r.f64();
  run_x_ = r.f64();
  run_k_ = r.u64();
}

Histogram::Histogram(double bin_width, std::size_t bins)
    : bin_width_(bin_width), counts_(bins + 1, 0) {
  require(bin_width > 0.0, "Histogram: bin_width must be > 0");
  require(bins > 0, "Histogram: need at least one bin");
}

void Histogram::add(double x) {
  ++total_;
  if (x < 0.0) x = 0.0;
  auto idx = static_cast<std::size_t>(x / bin_width_);
  if (idx >= counts_.size() - 1) idx = counts_.size() - 1;  // overflow bin
  ++counts_[idx];
}

void Histogram::merge(const Histogram& o) {
  require(bin_width_ == o.bin_width_ && counts_.size() == o.counts_.size(),
          "Histogram::merge: shape mismatch");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
  total_ += o.total_;
}

double Histogram::percentile(double q) const {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total_)));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::uint64_t prev = cum;
    cum += counts_[i];
    if (cum >= target && counts_[i] > 0) {
      // Interpolate within the bin by rank.
      const double frac = static_cast<double>(target - prev) /
                          static_cast<double>(counts_[i]);
      return (static_cast<double>(i) + frac) * bin_width_;
    }
  }
  return static_cast<double>(counts_.size()) * bin_width_;
}

void SampleSet::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleSet::percentile(double q) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples_.size())));
  return samples_[rank == 0 ? 0 : rank - 1];
}

double SampleSet::max() const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  return samples_.back();
}

void SampleSet::save(SnapshotWriter& w) const {
  w.u64(samples_.size());
  for (const double x : samples_) w.f64(x);
  w.boolean(sorted_);
}

void SampleSet::load(SnapshotReader& r) {
  const std::uint64_t n = r.u64();
  if (n > r.remaining() / 8) r.fail("sample count exceeds snapshot payload");
  samples_.clear();
  samples_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) samples_.push_back(r.f64());
  sorted_ = r.boolean();
}

}  // namespace edsim
