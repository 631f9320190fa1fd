#include "sim/random.h"

#include <cmath>

#include "sim/assert.h"

namespace cmap::sim {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double NormalDraw::radius() const { return std::sqrt(-2.0 * std::log(u1)); }

double NormalDraw::angle() const { return 2.0 * M_PI * u2; }

double NormalDraw::value() const { return radius() * std::cos(angle()); }

bool NormalDraw::certainly_below(double mean, double stddev,
                                 double limit) const {
  if (!(mean < limit)) return false;
  if (u2 >= 0.26 && u2 <= 0.74) return true;
  return stddev * std::sqrt(2.0 * (1.0 / u1 - 1.0)) <
         (limit - mean) - kBelowMargin;
}

double hash_normal(std::uint64_t h) {
  const double u1 = (static_cast<double>(mix64(h) >> 11) + 0.5) * 0x1.0p-53;
  const double u2 =
      static_cast<double>(mix64(h ^ 0xabcdef12345ull) >> 11) * 0x1.0p-53;
  return NormalDraw{u1, u2}.value();
}

Rng::Rng(std::uint64_t seed) : Rng(seed, 0x6a09e667f3bcc909ull) {}

Rng::Rng(std::uint64_t a, std::uint64_t b) : seed_lo_(a), seed_hi_(b) {
  std::uint64_t x = a ^ rotl(b, 17);
  for (auto& s : s_) s = splitmix64(x);
  // xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng Rng::substream(std::uint64_t tag, std::uint64_t id) const {
  std::uint64_t x = seed_lo_ ^ (tag * 0x9e3779b97f4a7c15ull);
  const std::uint64_t lo = splitmix64(x);
  x = seed_hi_ ^ (id * 0xd1b54a32d192ed03ull);
  const std::uint64_t hi = splitmix64(x);
  return Rng(lo, hi);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  CMAP_ASSERT(lo <= hi, "uniform_int bounds inverted");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return lo + static_cast<std::int64_t>(v % span);
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  const NormalDraw d = normal_draw();
  cached_normal_ = d.radius() * std::sin(d.angle());
  has_cached_normal_ = true;
  return d.value();
}

NormalDraw Rng::normal_draw() {
  NormalDraw d;
  do {
    d.u1 = uniform();
  } while (d.u1 <= 0.0);
  d.u2 = uniform();
  return d;
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::exponential(double mean) {
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

}  // namespace cmap::sim
