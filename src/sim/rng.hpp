// Deterministic random number generation for the simulator.
//
// xoshiro256** seeded via splitmix64: fast, high quality, and — unlike
// std::mt19937 + std::normal_distribution — bit-identical across standard
// library implementations, which the reproducibility tests rely on.
#pragma once

#include <cstdint>
#include <vector>

namespace hcs::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n); n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal via Marsaglia polar method (one spare cached).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double sd);

  /// Exponential with the given mean (mean <= 0 returns 0).
  double exponential(double mean);

  /// Log-normal parameterized by the *underlying* normal's mu/sigma.
  double lognormal(double mu, double sigma);

  /// Bernoulli trial.
  bool bernoulli(double p);

  /// Derives an independent child stream (used for per-run seeds).
  Rng split();

 private:
  std::uint64_t s_[4];
  double spare_ = 0.0;
  bool has_spare_ = false;
};

/// splitmix64 step, exposed for seed derivation in tests and harnesses.
std::uint64_t splitmix64(std::uint64_t& state);

/// One private Rng per directed (src, dst) channel, created on first use
/// and seeded from (seed, src, dst) alone, so a channel's draws never depend
/// on which other channels exist or on the order they were created in.
///
/// Storage is flat per sender: one array of (destination, stream) entries
/// sorted by destination, 56 B per channel plus at most 50 % growth slack
/// (a std::map node costs 96 B).  A lookup is a binary search over one
/// sender's entries.
///
/// Reference stability: the Rng& returned by at(src, dst) stays valid until
/// the next at() call that creates a channel *of the same sender*; streams
/// of other senders never move.  So a caller may hold the (a -> b) and
/// (b -> a) streams together, but must re-resolve after creating another
/// channel of either sender.  A sender's table is only ever touched from
/// that sender's shard, so no locking.
class ChannelStreams {
 public:
  /// `senders` bounds src to [0, senders); dst may be any int.
  ChannelStreams(std::uint64_t seed, int senders);

  /// The (src -> dst) channel's stream, created on first use.
  Rng& at(int src, int dst);

 private:
  struct Channel {
    int dst;
    Rng stream;
  };
  std::uint64_t seed_;
  std::vector<std::vector<Channel>> senders_;  // [src], sorted by dst
};

}  // namespace hcs::sim
