// Compile-fail fixtures for the write-window and shadow-page protocol
// typestates (tests/CMakeLists.txt runs the compiler on this file).
// With no FIXTURE_* macro it must compile; each macro swaps one
// correct step for the mis-ordered one that must not.

#include <utility>

#include "core/rio.hh"
#include "os/cacheguard.hh"

namespace rio::core
{

/** RioSystem's declared friend: spells the protocol's private steps
 *  as core/rio.cc does. */
struct ProtocolFixture
{
    /** A file-cache write, as the UBC makes one. */
    static void
    dataWindow(os::CacheGuard &guard, Addr page)
    {
        os::WriteWindow window = guard.beginWrite(page);
#if defined(FIXTURE_COPIED_WINDOW)
        os::WriteWindow copy = window;
#elif defined(FIXTURE_LVALUE_COMMIT)
        window.commit(0);
#endif
        std::move(window).commit(sim::kPageSize);
    }

    /** RioSystem::endWrite's order: close the data page, write the
     *  entry in its own window, then flip. */
    static void
    endWrite(RioSystem &rio, u64 index, Addr page)
    {
        using L = RegistryLayout;
#if defined(FIXTURE_FLIP_BEFORE_CLOSE)
        RioSystem::EntryWindow entry(rio, index);
        rio.commitEntry(std::move(entry), page);
        rio.closePage(page);
#else
        const RioSystem::ClosedPage closed = rio.closePage(page);
        RioSystem::EntryWindow entry(rio, index);
#if defined(FIXTURE_WRITE_WITHOUT_WINDOW)
        rio.writeEntryField32(index, L::kOffSize, 0);
#else
        rio.writeEntryField32(entry, L::kOffSize, 0);
#endif
#if defined(FIXTURE_FORGED_CLOSE)
        rio.commitEntry(std::move(entry), RioSystem::ClosedPage(page));
#else
        rio.commitEntry(std::move(entry), closed);
#endif
#endif
    }
};

} // namespace rio::core
