// Deterministic pseudo-random generation.
//
// A single seeded Rng drives every stochastic choice in a simulation run, so
// a (scenario, seed) pair is fully reproducible. The core generator is
// xoshiro256** (public domain, Blackman & Vigna) seeded through splitmix64;
// distribution helpers avoid std::<distribution> classes because their
// output is not specified portably across standard libraries.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/time.hpp"

namespace aria {

class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Derives an independent child stream; children with distinct tags do not
  /// overlap with the parent or each other in practice.
  Rng fork(std::uint64_t tag);

  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform integer in [lo, hi] (inclusive); requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Standard normal via Box–Muller (deterministic, no cached spare).
  double normal(double mean, double stddev);

  /// Normal clamped to [lo, hi] (the paper's bounded ERT distribution).
  double truncated_normal(double mean, double stddev, double lo, double hi);

  /// Index drawn according to non-negative weights; requires a positive sum.
  std::size_t weighted_index(const std::vector<double>& weights);

  /// Uniform duration in [lo, hi].
  Duration uniform_duration(Duration lo, Duration hi);

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j =
          static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Draws k distinct elements from v uniformly (k >= v.size() returns all,
  /// in randomized order).
  template <typename T>
  std::vector<T> sample(const std::vector<T>& v, std::size_t k) {
    std::vector<T> pool = v;
    shuffle(pool);
    if (k < pool.size()) pool.resize(k);
    return pool;
  }

 private:
  std::uint64_t s_[4];
};

/// Per-entity child streams of one parent: stream `i` is parent.fork(i),
/// forked on first use into a table indexed by `i` (a dense NodeId value).
/// fork() leaves the parent unchanged, so the order in which the slots fill
/// never changes any stream.
class ForkTable {
 public:
  explicit ForkTable(Rng parent) : parent_{parent} {}

  Rng& at(std::uint32_t i) {
    if (i >= slots_.size()) slots_.resize(std::size_t{i} + 1);
    std::optional<Rng>& slot = slots_[i];
    if (!slot) slot.emplace(parent_.fork(i));
    return *slot;
  }

 private:
  Rng parent_;
  std::vector<std::optional<Rng>> slots_;
};

}  // namespace aria
