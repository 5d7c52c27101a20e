// Pure measurement logic of the serving benchmark: the percentile rule,
// the request-outcome tally, interval unions for span attribution, and a
// self-contained seeded generator. Apart from the server's percentile
// function, nothing here touches the program under test, so the self-tests
// (selftest.cc) can pin it down exactly.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "server/server.h"

namespace perfbench {

/// SplitMix64, owned by the benchmark so request lists stay identical for a
/// seed even if the program's own generators change.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();

 private:
  uint64_t state_;
};

/// Nearest-rank percentile (p in [0, 100]) of `samples`; 0 when empty. The
/// server's own rule, so the benchmark's tails read like `ServerStats`'.
using seco::Percentile;
double Median(std::vector<double> samples);

/// Splits `samples` (in arrival order) into the most equal consecutive
/// blocks of at least `min_block` samples each, and returns the median over
/// the blocks of each block's nearest-rank p-th percentile. With fewer than
/// 2 * min_block samples that is the plain percentile.
double MedianOfBlockPercentiles(const std::vector<double>& samples, double p,
                                size_t min_block);

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
int64_t SamplesBeyond(int64_t n, double p);

/// The percentile rule: the highest of 50, 90, 95, 99, 99.9 that has at
/// least `min_beyond` samples beyond it; 0 when even the median has not.
double TailPercentileLevel(int64_t n, int64_t min_beyond = 10);

/// How one attempted request ended, as the client saw it.
enum class Fate {
  kAnswered,        ///< completed or degraded, and passed the check
  kShed,            ///< admission rejected it (or the server was draining)
  kExpired,         ///< queue-time or execution deadline passed
  kFailed,          ///< execution error reported by the server
  kCancelled,       ///< cancelled before it finished
  kTransportError,  ///< connection, framing or decode failure
  kWrongAnswer,     ///< answered, but differs from the oracle
};

/// Per-run outcome counts. Every attempted request lands in exactly one
/// fate; everything but kAnswered counts against `error_fraction`.
struct Tally {
  int64_t by_fate[7] = {};
  /// Answered at ladder level > 0 or with a partial answer.
  int64_t degraded = 0;

  void Add(Fate fate, bool degraded_answer = false);
  int64_t attempted() const;
  int64_t answered() const { return count(Fate::kAnswered); }
  int64_t count(Fate fate) const { return by_fate[static_cast<int>(fate)]; }
  /// Requests that failed as operations: execution errors, transport
  /// errors and wrong answers. Shedding and deadline expiry are the
  /// server's overload policy at work and are not counted here.
  int64_t failed() const;
  double error_fraction() const;
  double degraded_fraction() const;
};

/// Total length of the union of [start, end) intervals, clipped to
/// [lo, hi).
double UnionLength(std::vector<std::pair<double, double>> intervals,
                   double lo, double hi);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
