// Deterministic pseudo-random number generation (xoshiro256**, SplitMix64
// seeded). The simulator never touches std::random_device or wall-clock time,
// so every run with the same seed is bit-identical.

#ifndef FRAGVISOR_SRC_SIM_RNG_H_
#define FRAGVISOR_SRC_SIM_RNG_H_

#include <cstdint>
#include <vector>

#include "src/sim/check.h"

namespace fragvisor {

// SplitMix64: steps `x` by the golden-ratio increment and mixes it. Spreads
// structured ids (node, stream, link endpoints) into independent-looking
// seeds, jitter values and hash classes.
constexpr uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class Rng {
 public:
  // SplitMix64 seeding: state word i is SplitMix64 of seed plus i
  // golden-ratio increments. constexpr, so a record that holds an Rng can be
  // built at compile time (the field-list checks of src/sim/state_io.h).
  constexpr explicit Rng(uint64_t seed) {
    for (auto& s : s_) {
      s = SplitMix64(seed);
      seed += 0x9e3779b97f4a7c15ull;
    }
  }

  // Uniform over [0, 2^64).
  uint64_t NextU64();

  // Uniform over [0.0, 1.0).
  double NextDouble();

  // Uniform integer over [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform double over [lo, hi).
  double UniformDouble(double lo, double hi);

  // Exponential with the given mean (> 0).
  double Exponential(double mean);

  // Standard normal via Box-Muller, scaled to (mean, stddev).
  double Normal(double mean, double stddev);

  // Bounded Pareto-ish heavy tail used for job lifetimes: returns a sample in
  // [lo, hi] with density proportional to x^-(alpha+1).
  double BoundedPareto(double lo, double hi, double alpha);

  // Bernoulli trial.
  bool Chance(double p);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      const size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  // Derives an independent child generator (for per-component streams).
  Rng Fork();

  // Complete generator state, for snapshot serialization. Restoring a saved
  // state resumes the exact draw sequence (including the Box-Muller cache).
  struct State {
    uint64_t s[4] = {0, 0, 0, 0};
    bool have_cached_normal = false;
    double cached_normal = 0.0;
  };
  State state() const {
    return State{{s_[0], s_[1], s_[2], s_[3]}, have_cached_normal_, cached_normal_};
  }
  void RestoreState(const State& st) {
    for (int i = 0; i < 4; ++i) {
      s_[i] = st.s[i];
    }
    have_cached_normal_ = st.have_cached_normal;
    cached_normal_ = st.cached_normal;
  }

 private:
  uint64_t s_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace fragvisor

#endif  // FRAGVISOR_SRC_SIM_RNG_H_
