#ifndef TASQ_COMMON_RNG_H_
#define TASQ_COMMON_RNG_H_

#include <cstdint>
#include <random>
#include <vector>

namespace tasq {

/// Deterministic random number generator used throughout TASQ.
///
/// All stochastic components (workload generation, cluster noise, model
/// initialization, sampling) draw from an explicitly seeded `Rng`, so every
/// experiment is reproducible given its seed. `Fork(tag)` derives an
/// independent child stream, which lets parallel or per-entity randomness
/// stay stable when unrelated draws are added elsewhere.
class Rng {
 public:
  /// Constructs a generator seeded with `seed`.
  explicit Rng(uint64_t seed) : engine_(seed), seed_(seed) {}

  /// Returns a child generator whose stream is a pure function of this
  /// generator's seed and `tag` (it does not consume entropy from `this`).
  /// Each fork seeds a fresh 2.5 KB engine (about 2-3 µs), so fork per
  /// job, flight or template, never per task or per draw.
  Rng Fork(uint64_t tag) const {
    // SplitMix64-style mixing of (seed, tag) into a child seed.
    uint64_t z = seed_ + 0x9E3779B97F4A7C15ULL * (tag + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return Rng(z ^ (z >> 31));
  }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Standard normal draw scaled to mean/stddev.
  double Normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Log-normal draw with the given parameters of the underlying normal.
  double LogNormal(double log_mean, double log_stddev) {
    return std::lognormal_distribution<double>(log_mean, log_stddev)(engine_);
  }

  /// Returns true with probability `p` (clamped to [0,1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Samples an index in [0, weights.size()) proportionally to `weights`.
  /// Zero/negative weights are treated as zero; if all weights are zero the
  /// draw is uniform.
  size_t Categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffles `items` in place.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(items[i - 1], items[j]);
    }
  }

 private:
  std::mt19937_64 engine_;
  uint64_t seed_;
};

}  // namespace tasq

#endif  // TASQ_COMMON_RNG_H_
