#include "support/rng.hh"

#include <bit>
#include <cassert>
#include <cstring>

namespace rio::support
{

namespace
{

u64
splitMix64(u64 &state)
{
    u64 z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(u64 seed)
{
    u64 sm = seed;
    for (auto &word : state_)
        word = splitMix64(sm);
}

u64
Rng::below(u64 bound)
{
    assert(bound > 0);
    // Rejection sampling to avoid modulo bias.
    const u64 threshold = (0 - bound) % bound;
    for (;;) {
        const u64 r = next();
        if (r >= threshold)
            return r % bound;
    }
}

u64
Rng::between(u64 lo, u64 hi)
{
    assert(lo <= hi);
    if (hi <= lo)
        return lo;
    return lo + below(hi - lo + 1);
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return real() < p;
}

double
Rng::real()
{
    // 53 random mantissa bits.
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

void
Rng::fill(std::span<u8> out)
{
    // A word's memcpy lays down its bytes low to high only on a
    // little-endian host, which is what keeps every fill identical.
    static_assert(std::endian::native == std::endian::little);
    std::size_t i = 0;
    for (; i + 8 <= out.size(); i += 8) {
        const u64 word = next();
        std::memcpy(out.data() + i, &word, sizeof(word));
    }
    if (i < out.size()) {
        u64 word = next();
        while (i < out.size()) {
            out[i++] = static_cast<u8>(word);
            word >>= 8;
        }
    }
}

std::size_t
Rng::weighted(std::span<const double> weights)
{
    double total = 0.0;
    for (double w : weights)
        total += w;
    assert(total > 0.0);
    double pick = real() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        pick -= weights[i];
        if (pick < 0.0)
            return i;
    }
    return weights.size() - 1;
}

Rng
Rng::fork()
{
    return Rng(next() ^ 0xa5a5a5a55a5a5a5aull);
}

} // namespace rio::support
