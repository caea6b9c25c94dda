#include "os/kconfig.hh"

namespace rio::os
{

KernelConfig
systemPreset(SystemPreset preset)
{
    KernelConfig config;
    switch (preset) {
      case SystemPreset::MemoryFs:
        config.fs = FsKind::Mfs;
        config.metadata = MetadataPolicy::Delayed;
        config.data = DataPolicy::Delayed;
        break;
      case SystemPreset::UfsDelayAll:
        config.metadata = MetadataPolicy::Delayed;
        config.data = DataPolicy::Delayed;
        break;
      case SystemPreset::AdvFsJournal:
        // Metadata-only logging with a group commit of 16 blocks, as
        // [Hagmann87]: the compound-transaction engine's writeback
        // mode under a smaller transaction budget.
        config.fs = FsKind::Journal;
        config.metadata = MetadataPolicy::Logged;
        config.data = DataPolicy::Async64K;
        config.journal.mode = JournalMode::Writeback;
        config.journal.maxTxBlocks = 16;
        break;
      case SystemPreset::UfsDefault:
        config.metadata = MetadataPolicy::Sync;
        config.data = DataPolicy::Async64K;
        break;
      case SystemPreset::UfsWriteThroughClose:
        config.metadata = MetadataPolicy::Sync;
        config.data = DataPolicy::Async64K;
        config.fsyncOnClose = true;
        break;
      case SystemPreset::UfsWriteThroughWrite:
        config.metadata = MetadataPolicy::Sync;
        config.data = DataPolicy::SyncOnWrite;
        config.fsyncOnClose = true;
        break;
      case SystemPreset::RioNoProtection:
        config.rio = true;
        config.metadata = MetadataPolicy::Never;
        config.data = DataPolicy::Never;
        config.protection = ProtectionMode::Off;
        break;
      case SystemPreset::RioProtected:
        config.rio = true;
        config.metadata = MetadataPolicy::Never;
        config.data = DataPolicy::Never;
        config.protection = ProtectionMode::VmTlb;
        break;
      case SystemPreset::RioNvProtected:
        config.rio = true;
        config.metadata = MetadataPolicy::Never;
        config.data = DataPolicy::Never;
        config.protection = ProtectionMode::VmTlb;
        config.rioNvMirror = true;
        break;
      case SystemPreset::JournalWriteback:
        config.fs = FsKind::Journal;
        config.metadata = MetadataPolicy::Logged;
        config.data = DataPolicy::Async64K;
        config.journal.mode = JournalMode::Writeback;
        break;
      case SystemPreset::JournalOrdered:
        config.fs = FsKind::Journal;
        config.metadata = MetadataPolicy::Logged;
        config.data = DataPolicy::Async64K;
        config.journal.mode = JournalMode::Ordered;
        break;
      case SystemPreset::JournalData:
        config.fs = FsKind::Journal;
        config.metadata = MetadataPolicy::Logged;
        config.data = DataPolicy::Async64K;
        config.journal.mode = JournalMode::Journal;
        break;
    }
    return config;
}

const char *
systemPresetName(SystemPreset preset)
{
    switch (preset) {
      case SystemPreset::MemoryFs:
        return "Memory File System";
      case SystemPreset::UfsDelayAll:
        return "UFS, delayed data and metadata";
      case SystemPreset::AdvFsJournal:
        return "AdvFS (log metadata updates)";
      case SystemPreset::UfsDefault:
        return "UFS (async data, sync metadata)";
      case SystemPreset::UfsWriteThroughClose:
        return "UFS, write-through on close";
      case SystemPreset::UfsWriteThroughWrite:
        return "UFS, write-through on write";
      case SystemPreset::RioNoProtection:
        return "Rio without protection";
      case SystemPreset::RioProtected:
        return "Rio with protection";
      case SystemPreset::RioNvProtected:
        return "Rio with protection + NV registry";
      case SystemPreset::JournalWriteback:
        return "ext3 journal, data=writeback";
      case SystemPreset::JournalOrdered:
        return "ext3 journal, data=ordered";
      case SystemPreset::JournalData:
        return "ext3 journal, data=journal";
    }
    return "?";
}

const char *
systemPresetPermanence(SystemPreset preset)
{
    switch (preset) {
      case SystemPreset::MemoryFs:
        return "never";
      case SystemPreset::UfsDelayAll:
        return "after 0-30 seconds, asynchronous";
      case SystemPreset::AdvFsJournal:
        return "metadata after 16-block commit (<= 5 s)";
      case SystemPreset::UfsDefault:
        return "data after 64 KB async; metadata sync";
      case SystemPreset::UfsWriteThroughClose:
        return "after close, synchronous";
      case SystemPreset::UfsWriteThroughWrite:
        return "after write, synchronous";
      case SystemPreset::RioNoProtection:
        return "after write, synchronous";
      case SystemPreset::RioProtected:
        return "after write, synchronous";
      case SystemPreset::RioNvProtected:
        return "after write, synchronous";
      case SystemPreset::JournalWriteback:
        return "metadata after commit (<= 5 s); data async";
      case SystemPreset::JournalOrdered:
        return "after commit (<= 5 s); data before metadata";
      case SystemPreset::JournalData:
        return "after commit (<= 5 s), through the log";
    }
    return "?";
}

} // namespace rio::os
