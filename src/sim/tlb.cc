#include "sim/tlb.hh"

namespace rio::sim
{

Tlb::Tlb() : entries_(kEntries) {}

void
Tlb::fill(u64 vpn, const Pte &pte)
{
    Entry &entry = entries_[indexOf(vpn)];
    entry.valid = true;
    entry.vpn = vpn;
    entry.pte = pte;
}

void
Tlb::invalidatePage(u64 vpn)
{
    Entry &entry = entries_[indexOf(vpn)];
    if (entry.vpn == vpn)
        entry.valid = false;
}

void
Tlb::flushAll()
{
    for (auto &entry : entries_)
        entry.valid = false;
}

} // namespace rio::sim
