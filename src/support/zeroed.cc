#include "support/zeroed.hh"

#include <sys/mman.h>

#include <algorithm>
#include <cassert>
#include <cstring>
#include <new>

namespace rio::support
{

namespace
{

/** The granule copyIn skips by: the host's base page. */
constexpr u64 kHostPage = 4096;

bool
allZero(const u8 *p, u64 n)
{
    // Byte 0 is zero and every byte equals its successor.
    return n == 0 || (p[0] == 0 && std::memcmp(p, p + 1, n - 1) == 0);
}

/** Map @p size zero bytes, at @p at exactly when it is non-null. */
u8 *
mapZeroed(u64 size, u8 *at)
{
    const int flags = MAP_PRIVATE | MAP_ANONYMOUS | (at ? MAP_FIXED : 0);
    void *p = ::mmap(at, size, PROT_READ | PROT_WRITE, flags, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    return static_cast<u8 *>(p);
}

} // namespace

ZeroedBytes::ZeroedBytes(u64 size) : size_(size)
{
    if (size_ > 0)
        data_ = mapZeroed(size_, nullptr);
}

ZeroedBytes::~ZeroedBytes()
{
    if (data_)
        ::munmap(data_, size_);
}

void
ZeroedBytes::copyIn(u64 at, std::span<const u8> src)
{
    assert(at <= size_ && src.size() <= size_ - at);
    const u8 *from = src.data();
    u64 left = src.size();
    while (left > 0) {
        // Up to the next page boundary of the destination.
        const u64 n = std::min(left, kHostPage - at % kHostPage);
        // The source is checked first: it is resident, while reading
        // an untouched destination page costs a fault.
        if (!allZero(from, n) || !allZero(data_ + at, n))
            std::memcpy(data_ + at, from, n);
        at += n;
        from += n;
        left -= n;
    }
}

void
ZeroedBytes::zero()
{
    // A fresh mapping over the same range drops the old pages.
    if (data_)
        mapZeroed(size_, data_);
}

} // namespace rio::support
