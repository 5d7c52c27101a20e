#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double MedianOfBlockPercentiles(const std::vector<double>& samples, double p,
                                size_t min_block) {
  const size_t n = samples.size();
  const size_t blocks = std::max<size_t>(1, n / std::max<size_t>(1, min_block));
  std::vector<double> tails;
  for (size_t b = 0; b < blocks; ++b) {
    tails.push_back(Percentile(
        std::vector<double>(samples.begin() + b * n / blocks,
                            samples.begin() + (b + 1) * n / blocks),
        p));
  }
  return Median(tails);
}

int64_t SamplesBeyond(int64_t n, double p) {
  if (n <= 0) return 0;
  // Nearest rank r = ceil(p/100 * n); the samples after rank r lie beyond.
  // The small epsilon keeps 99/100*1000 from rounding up to rank 991.
  const double exact = p / 100.0 * static_cast<double>(n);
  int64_t rank = static_cast<int64_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<int64_t>(rank, 1, n);
  return n - rank;
}

double TailPercentileLevel(int64_t n, int64_t min_beyond) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    if (SamplesBeyond(n, p) >= min_beyond) return p;
  }
  return 0.0;
}

void Tally::Add(Fate fate, bool degraded_answer) {
  ++by_fate[static_cast<int>(fate)];
  if (fate == Fate::kAnswered && degraded_answer) ++degraded;
}

int64_t Tally::attempted() const {
  int64_t total = 0;
  for (int64_t c : by_fate) total += c;
  return total;
}

int64_t Tally::failed() const {
  return count(Fate::kFailed) + count(Fate::kTransportError) +
         count(Fate::kWrongAnswer);
}

double Tally::error_fraction() const {
  const int64_t n = attempted();
  return n > 0 ? static_cast<double>(n - answered()) / static_cast<double>(n)
               : 0.0;
}

double Tally::degraded_fraction() const {
  const int64_t n = attempted();
  return n > 0 ? static_cast<double>(degraded) / static_cast<double>(n) : 0.0;
}

double UnionLength(std::vector<std::pair<double, double>> intervals,
                   double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cur_start = 0.0, cur_end = 0.0;
  bool open = false;
  for (auto [s, e] : intervals) {
    s = std::max(s, lo);
    e = std::min(e, hi);
    if (e <= s) continue;
    if (open && s <= cur_end) {
      cur_end = std::max(cur_end, e);
      continue;
    }
    if (open) total += cur_end - cur_start;
    cur_start = s;
    cur_end = e;
    open = true;
  }
  if (open) total += cur_end - cur_start;
  return total;
}

}  // namespace perfbench
