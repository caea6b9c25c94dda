/**
 * @file
 * A fixed-size byte buffer whose pages come zeroed from the OS.
 *
 * The simulated machine's memory, disks and NV region are large and
 * start out all zero, but a run touches only part of them. Filling
 * such a store with zeros up front faults in every page of it. This
 * buffer instead takes an anonymous private mapping: the OS supplies
 * zero pages on first touch, pages that are only read share the one
 * zero page, and pages never touched cost nothing. zero() hands the
 * pages back the same way, so a cold reset costs one system call
 * rather than a write over every byte.
 *
 * copyIn() keeps stores sparse under host writes too. A disk that is
 * formatted, or that takes a dump of mostly empty memory, is sent
 * long runs of zeros; a plain copy would fault in a fresh page for
 * each of them just to hold zeros it already reads as. copyIn skips
 * every page-sized piece whose source is all zero and whose
 * destination already reads zero. Those bytes would not change, so
 * the skip is invisible: the store reads back exactly as if every
 * byte had been copied.
 */

#ifndef RIO_SUPPORT_ZEROED_HH
#define RIO_SUPPORT_ZEROED_HH

#include <span>

#include "support/types.hh"

namespace rio::support
{

class ZeroedBytes
{
  public:
    /** @p size bytes, all zero. @throws std::bad_alloc. */
    explicit ZeroedBytes(u64 size);
    ~ZeroedBytes();

    ZeroedBytes(const ZeroedBytes &) = delete;
    ZeroedBytes &operator=(const ZeroedBytes &) = delete;

    u64 size() const { return size_; }
    u8 *data() { return data_; }
    const u8 *data() const { return data_; }
    std::span<const u8> span() const { return {data_, size_}; }

    /**
     * Copy @p src to offset @p at, skipping each piece (at most one
     * host page, aligned to the store's pages) whose source and
     * destination are both all zero. Reads as a plain copy.
     * Requires at + src.size() <= size().
     */
    void copyIn(u64 at, std::span<const u8> src);

    /** Make every byte zero again; the address does not change. */
    void zero();

  private:
    u8 *data_ = nullptr;
    u64 size_ = 0;
};

} // namespace rio::support

#endif // RIO_SUPPORT_ZEROED_HH
