// Deterministic random number generation with independent substreams.
//
// Every stochastic component (each radio's error draws, each MAC's backoff,
// topology shadowing, workload choice) pulls from its own substream derived
// from (root seed, component tag, instance id). Two consequences:
//   * a whole experiment is reproducible from one 64-bit seed, and
//   * changing how often one component draws does not perturb the others,
//     so A/B comparisons between MACs see identical channels.
//
// Core generator: xoshiro256++ (public-domain construction by Blackman &
// Vigna); seeding and substream derivation use SplitMix64.
#pragma once

#include <cstdint>

namespace cmap::sim {

/// The two uniforms behind one Box-Muller draw, kept apart from the
/// transcendental math so a caller can often decide against a threshold
/// without it. The one definition of Box-Muller in this repo: Rng::normal()
/// and hash_normal() both go through radius() and angle().
struct NormalDraw {
  double u1 = 0.5;  // in (0, 1): sets the radius
  double u2 = 0.0;  // in [0, 1): sets the angle

  double radius() const;  // sqrt(-2 ln u1)
  double angle() const;   // 2 pi u2
  /// The standard normal variate radius() * cos(angle()); no sine.
  double value() const;

  /// True only if mean + stddev * value() < limit, decided without the
  /// log and cos of value() (stddev >= 0). A false answer proves nothing:
  /// the caller computes the value. Always false unless mean < limit. Two
  /// exact exits, each sound under IEEE rounding:
  ///  - u2 in [0.26, 0.74]: the angle lies strictly inside (pi/2, 3pi/2),
  ///    so the cosine, and with it stddev * value(), is <= 0, and rounding
  ///    is monotone, so mean + stddev * value() <= mean < limit;
  ///  - -ln u1 <= 1/u1 - 1 bounds the radius by sqrt(2 (1/u1 - 1)), and
  ///    stddev times that bound lies below limit - mean by an absolute
  ///    margin (kBelowMargin) far wider than the rounding of any term.
  bool certainly_below(double mean, double stddev, double limit) const;

  /// certainly_below's slack, in the units of mean and limit. Absolute:
  /// it must cover the rounding of mean + stddev * value() near `limit`
  /// (an ulp of |limit|: 1.4e-14 at 100, still under 1.2e-10 below 1e6),
  /// and a margin relative to limit - mean would shrink below that as
  /// mean nears the limit.
  static constexpr double kBelowMargin = 1e-9;
};

/// SplitMix64 finalizer (Steele, Lea & Flood): a bijective 64-bit mixer.
/// THE way to fold structured coordinates (pair ids, sweep axes) into a
/// substream id or seed — arithmetic packings like `a * 1000 + b` collide
/// as soon as a coordinate outgrows the multiplier.
std::uint64_t mix64(std::uint64_t x);

/// Standard normal as a pure function of a 64-bit hash value (two mix64
/// uniforms, Box-Muller). For deterministic stateless draws keyed on
/// structured coordinates — per-pair shadowing, per-epoch channel
/// innovations — where the same key must always yield the same variate.
double hash_normal(std::uint64_t h);

/// xoshiro256++ PRNG plus the distributions the simulator needs.
class Rng {
 public:
  /// Seeds the state via SplitMix64 expansion of `seed`.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Derive an independent generator for component `tag`, instance `id`.
  /// Derivation mixes the parent's *seed material*, not its current state,
  /// so substreams are stable regardless of how much the parent has drawn.
  Rng substream(std::uint64_t tag, std::uint64_t id = 0) const;

  /// Next raw 64 random bits.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// True with probability p (clamped to [0, 1]).
  bool bernoulli(double p);

  /// Standard normal via Box-Muller (cached second variate).
  double normal();

  /// The uniforms normal() would turn into its next fresh variate (u1 > 0
  /// redrawn as it does), advancing the generator as normal() would: for
  /// a fresh generator, normal_draw().value() == normal(), bit for bit.
  NormalDraw normal_draw();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Exponential with the given mean.
  double exponential(double mean);

 private:
  Rng(std::uint64_t a, std::uint64_t b);  // internal: direct seed material
  std::uint64_t s_[4];
  std::uint64_t seed_lo_ = 0, seed_hi_ = 0;  // kept for substream derivation
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace cmap::sim
