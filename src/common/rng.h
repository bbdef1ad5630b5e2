// Deterministic pseudo-random number generation.
//
// Every stochastic element of the reproduction (component tolerances, CSMA
// jitter, environment noise) draws from a seeded SplitMix64 stream so that
// simulations and benchmarks are reproducible run-to-run.

#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <cmath>
#include <cstdint>

namespace micropnp {

// SplitMix64: tiny, fast, passes BigCrush when used as a 64-bit stream.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t NextU64() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  uint32_t NextU32() { return static_cast<uint32_t>(NextU64() >> 32); }

  // Uniform in [0, 1).
  double NextDouble() { return static_cast<double>(NextU64() >> 11) * 0x1.0p-53; }

  // Uniform in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

  // Uniform integer in [lo, hi] (inclusive).
  uint64_t UniformInt(uint64_t lo, uint64_t hi) {
    if (hi <= lo) {
      return lo;
    }
    return lo + NextU64() % (hi - lo + 1);
  }

  // Standard normal via Box-Muller (no caching; cheap enough for simulation).
  double NextGaussian() {
    double u1 = NextDouble();
    double u2 = NextDouble();
    if (u1 < 1e-300) {
      u1 = 1e-300;
    }
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

  // Normal with mean/stddev.
  double Gaussian(double mean, double stddev) { return mean + stddev * NextGaussian(); }

  // True with probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

  // Derives an independent child stream (useful for giving each simulated
  // node its own stream while keeping the scenario seed stable).
  Rng Fork() { return Rng(NextU64() ^ 0xa02bdbf7bb3c0a7ull); }

 private:
  uint64_t state_;
};

}  // namespace micropnp

#endif  // SRC_COMMON_RNG_H_
