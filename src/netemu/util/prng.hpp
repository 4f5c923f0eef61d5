#pragma once
// Deterministic pseudo-random number generation for reproducible experiments.
//
// All randomness in netemu flows through Prng (xoshiro256**), seeded via
// splitmix64 so that nearby integer seeds still give independent streams.
// std::mt19937 is deliberately avoided: its state is large, its seeding is
// easy to get wrong, and its output sequence is not guaranteed identical
// across standard-library implementations for distribution adaptors.

#include <cstdint>
#include <limits>
#include <utility>

namespace netemu {

/// splitmix64 step: used for seeding and as a cheap standalone mixer.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** — fast, high-quality, 256-bit state PRNG.
/// Satisfies UniformRandomBitGenerator.
class Prng {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Prng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Advance the state by n draws, as if n values were drawn and dropped.
  constexpr void discard(std::uint64_t n) noexcept {
    while (n-- > 0) operator()();
  }

  /// Uniform integer in [0, bound). bound must be nonzero.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t below(std::uint64_t bound) noexcept {
    __uint128_t m = static_cast<__uint128_t>(operator()()) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        m = static_cast<__uint128_t>(operator()()) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) noexcept { return uniform() < p; }

  /// Derive an independent child stream (e.g. one per worker thread).
  Prng split() noexcept {
    return Prng(operator()() ^ 0xA3C59AC2ULL);
  }

  /// Deterministic indexed substream: stream(seed, i) is independent of
  /// stream(seed, j) for i != j and depends only on (seed, index) — the
  /// scheduling-independent seeding used for parallel trials (each trial t
  /// draws everything from stream(base, t), so results are identical no
  /// matter how many threads run them or in what order).
  static constexpr Prng stream(std::uint64_t seed,
                               std::uint64_t index) noexcept {
    std::uint64_t s = index;
    return Prng(seed ^ splitmix64(s));
  }

  /// Equal state: the two generators draw identical sequences from here on.
  constexpr bool operator==(const Prng&) const noexcept = default;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4]{};
};

/// Fisher–Yates shuffle of a random-access container.
template <typename Container>
void shuffle(Container& c, Prng& rng) {
  using std::swap;
  for (std::size_t i = c.size(); i > 1; --i) {
    const std::size_t j = rng.below(i);
    swap(c[i - 1], c[j]);
  }
}

}  // namespace netemu
