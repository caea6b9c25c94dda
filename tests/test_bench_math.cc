/**
 * @file
 * Golden tests for the benchmark building blocks: the zipfian
 * popularity distribution, the log-linear latency histogram
 * (harness/bench.hh) and the block checksum (support/checksum.hh).
 * The benchmark's published percentiles are only as trustworthy as
 * this math, so the bucket mapping and the sample streams are pinned
 * at fixed seeds, and so are the checksum's values.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "harness/bench.hh"
#include "support/checksum.hh"
#include "support/rng.hh"

using namespace rio;
using harness::LatencyHistogram;
using harness::Zipfian;

TEST(LatencyHistogramTest, ExactBelowThirtyTwo)
{
    LatencyHistogram hist;
    for (u64 v = 0; v < 32; ++v)
        hist.record(v);
    EXPECT_EQ(hist.count(), 32u);
    EXPECT_EQ(hist.min(), 0u);
    EXPECT_EQ(hist.max(), 31u);
    // With one sample per value, percentile boundaries are exact.
    EXPECT_EQ(hist.percentile(50), 15u);
    EXPECT_EQ(hist.percentile(100), 31u);
    EXPECT_EQ(hist.percentile(0), 0u);
}

TEST(LatencyHistogramTest, BucketMappingInvariants)
{
    // Every value maps to a bucket whose upper bound is >= the value
    // and within 1/16 relative error; bounds are monotone.
    for (u64 v : {0ull, 1ull, 31ull, 32ull, 33ull, 63ull, 64ull,
                  100ull, 1000ull, 40'000ull, 123'456'789ull,
                  (1ull << 40) + 12345, ~0ull >> 1}) {
        const std::size_t idx = LatencyHistogram::bucketIndex(v);
        const u64 upper = LatencyHistogram::bucketUpperBound(idx);
        EXPECT_GE(upper, v);
        EXPECT_LE(upper - v, v / 16 + 1) << "value " << v;
        if (idx > 0) {
            EXPECT_LT(LatencyHistogram::bucketUpperBound(idx - 1),
                      v);
        }
    }
    EXPECT_LT(LatencyHistogram::bucketIndex(~0ull),
              LatencyHistogram::numBuckets());
}

TEST(LatencyHistogramTest, GoldenPercentiles)
{
    // 1..100000 recorded in order; percentiles land in known
    // buckets. These are golden values: if the bucket layout ever
    // changes, every committed BENCH_server.json becomes
    // incomparable with future ones, so changing them must be loud.
    LatencyHistogram hist;
    for (u64 v = 1; v <= 100'000; ++v)
        hist.record(v);
    EXPECT_EQ(hist.count(), 100'000u);
    EXPECT_EQ(hist.percentile(50), 51199u); // bucket upper bound
    EXPECT_EQ(hist.percentile(90), 90111u); // bucket upper bound
    EXPECT_EQ(hist.percentile(99), 100000u);   // clamped to max
    EXPECT_EQ(hist.percentile(99.9), 100000u); // clamped to max
    EXPECT_NEAR(hist.mean(), 50000.5, 0.01);
}

TEST(LatencyHistogramTest, MergeMatchesCombinedStream)
{
    support::Rng rng(7);
    LatencyHistogram a, b, combined;
    for (int i = 0; i < 5000; ++i) {
        const u64 v = rng.next() >> (rng.below(40));
        combined.record(v);
        (i % 2 ? a : b).record(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), combined.count());
    EXPECT_EQ(a.min(), combined.min());
    EXPECT_EQ(a.max(), combined.max());
    for (double p : {1.0, 25.0, 50.0, 90.0, 99.0, 99.9})
        EXPECT_EQ(a.percentile(p), combined.percentile(p)) << p;
}

TEST(ZipfianTest, UniformWhenThetaZero)
{
    Zipfian zipf(10, 0.0);
    support::Rng rng(3);
    std::map<u64, u64> counts;
    for (int i = 0; i < 100'000; ++i)
        ++counts[zipf.sample(rng)];
    for (u64 r = 0; r < 10; ++r) {
        EXPECT_GT(counts[r], 9'000u) << r;
        EXPECT_LT(counts[r], 11'000u) << r;
    }
}

TEST(ZipfianTest, SkewOrdersRanks)
{
    Zipfian zipf(100, 0.99);
    support::Rng rng(11);
    std::map<u64, u64> counts;
    for (int i = 0; i < 200'000; ++i)
        ++counts[zipf.sample(rng)];
    // Rank 0 dominates and popularity decays with rank.
    EXPECT_GT(counts[0], counts[9] * 5);
    EXPECT_GT(counts[0], 30'000u);
    EXPECT_GT(counts[9], counts[99]);
}

TEST(ZipfianTest, GoldenSampleStream)
{
    // The first draws at a fixed seed are pinned: the benchmark's op
    // stream (and thus any committed BENCH numbers) depends on them.
    Zipfian zipf(64, 0.99);
    support::Rng rng(42);
    std::vector<u64> draws;
    for (int i = 0; i < 16; ++i)
        draws.push_back(zipf.sample(rng));
    const std::vector<u64> golden = {0,  2,  13, 44, 61, 21, 16, 31,
                                     20, 8,  14, 1,  25, 2,  16, 36};
    EXPECT_EQ(draws, golden) << "zipfian sample stream changed";
}

TEST(ChecksumTest, GoldenValuesPinTheWordHash)
{
    // checksum32 is XXH64 (seed 0) folded to 32 bits. Sums are stored
    // on disk and in the NV header, so the function itself is pinned.
    // The first two fold published XXH64 test vectors:
    // XXH64("") = ef46db3751d8e999, XXH64("abc") = 44bc2cf5ad770999.
    auto sum = [](const std::vector<u8> &bytes) {
        return support::checksum32({bytes.data(), bytes.size()});
    };
    EXPECT_EQ(sum({}), 0xbe9e32aeu);
    EXPECT_EQ(sum({'a', 'b', 'c'}), 0xe9cb256cu);

    std::vector<u8> page(8192);
    support::Rng rng(123);
    rng.fill(page);
    EXPECT_EQ(sum(page), 0x0c970183u);

    // Every length 0-100 of the same bytes: crosses the byte, 4-byte
    // and 8-byte tails and the 32-byte stripe boundary at 32, 64, 96.
    std::vector<u8> sums;
    for (std::size_t len = 0; len <= 100; ++len) {
        const u32 s = support::checksum32({page.data(), len});
        for (int b = 0; b < 4; ++b)
            sums.push_back(static_cast<u8>(s >> (8 * b)));
    }
    EXPECT_EQ(sum(sums), 0xc6a96bbbu);
}
