#include "src/sim/rng.h"

#include <cmath>

namespace fragvisor {
namespace {

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  FV_CHECK_LE(lo, hi);
  const uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) {
    // Full 64-bit range.
    return static_cast<int64_t>(NextU64());
  }
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  uint64_t x = NextU64();
  while (x >= limit) {
    x = NextU64();
  }
  return lo + static_cast<int64_t>(x % range);
}

double Rng::UniformDouble(double lo, double hi) {
  FV_CHECK_LE(lo, hi);
  return lo + (hi - lo) * NextDouble();
}

double Rng::Exponential(double mean) {
  FV_CHECK_GT(mean, 0.0);
  double u = NextDouble();
  while (u <= 0.0) {
    u = NextDouble();
  }
  return -mean * std::log(u);
}

double Rng::Normal(double mean, double stddev) {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1 = NextDouble();
  while (u1 <= 0.0) {
    u1 = NextDouble();
  }
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  have_cached_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

double Rng::BoundedPareto(double lo, double hi, double alpha) {
  FV_CHECK_GT(lo, 0.0);
  FV_CHECK_LT(lo, hi);
  FV_CHECK_GT(alpha, 0.0);
  const double u = NextDouble();
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

bool Rng::Chance(double p) { return NextDouble() < p; }

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace fragvisor
