/**
 * @file
 * A zipfian popularity distribution for picking files in the
 * server-traffic op stream (riobench's `oploop` and the tests that
 * drive the same stream). It is seed-stable across platforms, so its
 * sample streams can be golden-tested.
 */

#ifndef RIO_HARNESS_BENCH_HH
#define RIO_HARNESS_BENCH_HH

#include <vector>

#include "support/rng.hh"
#include "support/types.hh"

namespace rio::harness
{

/**
 * Zipfian rank distribution over [0, n): rank r is drawn with weight
 * 1/(r+1)^theta. theta = 0 degenerates to uniform; theta ~ 0.99 is
 * the classic YCSB-style skew. Sampling is a binary search over a
 * precomputed CDF, so a draw costs O(log n) with no rejection loop —
 * one Rng draw per sample, keeping op streams seed-stable.
 */
class Zipfian
{
  public:
    Zipfian(u64 n, double theta);

    u64 n() const { return cdf_.size(); }
    double theta() const { return theta_; }

    /** Draw a rank in [0, n); rank 0 is the most popular. */
    u64 sample(support::Rng &rng) const;

  private:
    std::vector<double> cdf_; ///< Cumulative, unnormalized weights.
    double theta_;
};

} // namespace rio::harness

#endif // RIO_HARNESS_BENCH_HH
