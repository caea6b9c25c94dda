/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every source of randomness in the simulator (fault injection sites,
 * memTest operation streams, synthetic file contents, disk layout
 * noise) draws from a seeded Rng so that an entire crash campaign is
 * reproducible from a single (seed, config) pair. The generator is
 * xoshiro256**, seeded through SplitMix64 as its authors recommend.
 */

#ifndef RIO_SUPPORT_RNG_HH
#define RIO_SUPPORT_RNG_HH

#include <array>
#include <span>

#include "support/types.hh"

namespace rio::support
{

/**
 * A small, fast, deterministic PRNG (xoshiro256**).
 *
 * Not cryptographic; statistical quality is more than sufficient for
 * fault-site selection and workload generation.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed, expanded via SplitMix64. */
    explicit Rng(u64 seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    u64
    next()
    {
        const u64 result = rotl(state_[1] * 5, 7) * 9;
        const u64 t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @pre bound > 0. */
    u64 below(u64 bound);

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi. */
    u64 between(u64 lo, u64 hi);

    /** Bernoulli trial: true with probability @p p (clamped to [0,1]). */
    bool chance(double p);

    /** Uniform double in [0, 1). */
    double real();

    /**
     * Fill @p out with pseudo-random bytes: the little-endian bytes
     * of successive next() words, the last word truncated.
     */
    void fill(std::span<u8> out);

    /**
     * Pick an index from a discrete distribution given by weights.
     * @param weights Non-negative weights; at least one must be > 0.
     * @return An index into @p weights.
     */
    std::size_t weighted(std::span<const double> weights);

    /** Fork a new independent stream (decorrelated from this one). */
    Rng fork();

  private:
    static constexpr u64
    rotl(u64 x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<u64, 4> state_;
};

} // namespace rio::support

#endif // RIO_SUPPORT_RNG_HH
