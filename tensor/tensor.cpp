#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>

#include "tensor/gemm_tile.h"  // QAVAT_SIMD

namespace qavat {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t x = seed ^ (0xd1b54a32d192ed03ULL * (stream + 1));
  for (auto& s : s_) s = splitmix64(x);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform(double lo, double hi) {
  const double u =
      static_cast<double>(next_u64() >> 11) * (1.0 / 9007199254740992.0);
  return lo + u * (hi - lo);
}

double Rng::normal() {
  if (has_cached_) {
    has_cached_ = false;
    return cached_;
  }
  double u1 = uniform(0.0, 1.0);
  while (u1 <= 1e-300) u1 = uniform(0.0, 1.0);
  const double u2 = uniform(0.0, 1.0);
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  cached_ = r * std::sin(theta);
  has_cached_ = true;
  return r * std::cos(theta);
}

index_t Rng::below(index_t n) {
  return n <= 0 ? 0 : static_cast<index_t>(next_u64() % static_cast<std::uint64_t>(n));
}

Tensor::Tensor(std::vector<index_t> shape) : shape_(std::move(shape)) {
  data_.assign(static_cast<std::size_t>(numel(shape_)), 0.0f);
}

Tensor::Tensor(std::vector<index_t> shape, float fill) : Tensor(std::move(shape)) {
  this->fill(fill);
}

void Tensor::reshape(std::vector<index_t> shape) {
  assert(numel(shape) == size());
  shape_ = std::move(shape);
}

void Tensor::resize(std::vector<index_t> shape) {
  shape_ = std::move(shape);
  data_.assign(static_cast<std::size_t>(numel(shape_)), 0.0f);
}

void Tensor::resize_for_overwrite(std::vector<index_t> shape) {
  shape_ = std::move(shape);
  data_.resize(static_cast<std::size_t>(numel(shape_)));
}

void Tensor::zero() { fill(0.0f); }

void Tensor::fill(float v) {
  for (auto& x : data_) x = v;
}

float Tensor::abs_max() const {
  // kLanes independent partial maxima, so the loop vectorizes; max is
  // exact and std::max(m, NaN) keeps m in every lane, so the result is
  // the sequential one for any data.
  constexpr std::size_t kLanes = 16;
  float lane[kLanes] = {};
  const float* p = data_.data();
  const std::size_t n = data_.size(), body = n - n % kLanes;
  for (std::size_t i = 0; i < body; i += kLanes) {
    QAVAT_SIMD
    for (std::size_t l = 0; l < kLanes; ++l) {
      lane[l] = std::max(lane[l], std::fabs(p[i + l]));
    }
  }
  float m = 0.0f;
  for (std::size_t i = body; i < n; ++i) m = std::max(m, std::fabs(p[i]));
  for (float v : lane) m = std::max(m, v);
  return m;
}

}  // namespace qavat
