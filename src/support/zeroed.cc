#include "support/zeroed.hh"

#include <sys/mman.h>

#include <new>

namespace rio::support
{

namespace
{

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
ZeroedBytes::zero()
{
    // A fresh mapping over the same range drops the old pages.
    if (data_)
        mapZeroed(size_, data_);
}

} // namespace rio::support
