/**
 * @file
 * Golden tests for the benchmark building blocks: the zipfian
 * popularity distribution (harness/bench.hh) and the block checksum
 * (support/checksum.hh). The server op stream is only as
 * reproducible as this math, so the sample streams are pinned at
 * fixed seeds, and so are the checksum's values.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "harness/bench.hh"
#include "support/checksum.hh"
#include "support/rng.hh"

using namespace rio;
using harness::Zipfian;

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
    // The first draws at a fixed seed are pinned: the server op
    // stream (and thus riobench's per-op numbers) depends on them.
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
