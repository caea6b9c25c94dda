/**
 * @file
 * Regression tests for the file-server client's model mirroring
 * (workload/serverclient.hh). The historical bug: the overwrite-doc
 * path updated the ModelFs oracle only on a successful write, but
 * the open had *already* truncated the real file — a failed or short
 * write left the oracle holding contents the file system no longer
 * had, and the year-end audit (which never checked sizes) could not
 * see it. These tests pin the corrected mirroring discipline and the
 * size-checking audit.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/system.hh"
#include "sim/machine.hh"
#include "workload/modelfs.hh"
#include "workload/script.hh"
#include "workload/serverclient.hh"

using namespace rio;

namespace
{

struct Server
{
    sim::Machine machine;
    core::System system;

    explicit Server(u64 diskBytes = 16ull << 20)
        : machine(machineConfig(diskBytes)),
          system(machine,
                 os::systemPreset(os::SystemPreset::RioProtected))
    {
        system.boot(true);
    }

    os::Kernel &kernel() { return system.kernel(); }

    static sim::MachineConfig
    machineConfig(u64 diskBytes)
    {
        sim::MachineConfig config;
        config.physMemBytes = 16ull << 20;
        config.diskBytes = diskBytes;
        config.swapBytes = 17ull << 20;
        return config;
    }
};

/** Audit helper: every model file must match the vfs exactly. */
void
expectModelMatchesVfs(os::Kernel &kernel, const wl::ModelFs &model)
{
    os::Process proc(9);
    for (const auto &[path, expected] : model.files()) {
        auto st = kernel.vfs().stat(path);
        ASSERT_TRUE(st.ok()) << path;
        EXPECT_EQ(st.value().size, expected.size()) << path;
        auto fd = kernel.vfs().open(proc, path,
                                    os::OpenFlags::readOnly());
        ASSERT_TRUE(fd.ok()) << path;
        std::vector<u8> bytes(expected.size());
        auto n = kernel.vfs().read(proc, fd.value(), bytes);
        wl::tolerate(kernel.vfs().close(proc, fd.value()));
        ASSERT_TRUE(n.ok()) << path;
        EXPECT_EQ(n.value(), expected.size()) << path;
        EXPECT_EQ(bytes, expected) << path;
    }
}

} // namespace

TEST(ServerClient, OverwriteShorterKeepsModelInSync)
{
    Server server;
    wl::ServerClient::Config config;
    config.docMin = 20'000;
    config.docMax = 30'000;
    wl::ServerClient client(config, 5);
    client.createDirs(server.kernel());
    wl::ModelFs model;

    ASSERT_TRUE(client.overwriteDoc(server.kernel(), model, 1));
    // Overwrite with much smaller docs: truncation must be mirrored.
    wl::ServerClient::Config small = config;
    small.docMin = 100;
    small.docMax = 200;
    wl::ServerClient shrinker(small, 6);
    ASSERT_TRUE(shrinker.overwriteDoc(server.kernel(), model, 1));
    expectModelMatchesVfs(server.kernel(), model);

    const auto audit = client.audit(server.kernel(), model);
    EXPECT_EQ(audit.damaged, 0u);
    EXPECT_EQ(audit.intact, model.files().size());
}

/**
 * The historical divergence: fill the disk until writes fail, then
 * keep overwriting. The truncating open succeeds while the write
 * fails — the model must track what the file system actually holds
 * (an empty or short file), not the intended contents.
 */
TEST(ServerClient, FailedWriteAfterTruncatingOpenIsMirrored)
{
    Server server(4ull << 20); // Small disk so writes can fail.
    wl::ServerClient::Config config;
    config.docs = 512;
    config.docMin = 30'000;
    config.docMax = 32'768;
    wl::ServerClient client(config, 7);
    client.createDirs(server.kernel());
    wl::ModelFs model;

    u64 failures = 0;
    for (u64 doc = 0; doc < config.docs; ++doc) {
        if (!client.overwriteDoc(server.kernel(), model, doc))
            ++failures;
    }
    ASSERT_GT(failures, 0u)
        << "disk never filled; the regression path was not exercised";

    // Overwrite existing docs some more now that the disk is full:
    // every one of these opens truncates, then fails to write.
    for (u64 doc = 0; doc < 32; ++doc)
        client.overwriteDoc(server.kernel(), model, doc);

    // The oracle and the file system agree byte-for-byte anyway.
    expectModelMatchesVfs(server.kernel(), model);
    const auto audit = client.audit(server.kernel(), model);
    EXPECT_EQ(audit.damaged, 0u);
}

/** The pre-fix audit read expected.size() bytes and compared — a
 * file that *grew* past the model passed. The audit must catch it. */
TEST(ServerClient, AuditCatchesLongerRealFile)
{
    Server server;
    wl::ServerClient::Config config;
    wl::ServerClient client(config, 8);
    client.createDirs(server.kernel());
    wl::ModelFs model;
    ASSERT_TRUE(client.overwriteDoc(server.kernel(), model, 0));
    ASSERT_TRUE(client.overwriteDoc(server.kernel(), model, 1));

    // Corrupt: append bytes to doc 0 behind the model's back.
    os::Process vandal(3);
    const std::string path = client.docPath(0);
    auto flags = os::OpenFlags::readWrite();
    flags.append = true;
    auto fd = server.kernel().vfs().open(vandal, path, flags);
    ASSERT_TRUE(fd.ok());
    const std::vector<u8> extra(64, 0xee);
    ASSERT_TRUE(
        server.kernel().vfs().write(vandal, fd.value(), extra).ok());
    wl::tolerate(server.kernel().vfs().close(vandal, fd.value()));

    const auto audit = client.audit(server.kernel(), model);
    EXPECT_EQ(audit.damaged, 1u);
    EXPECT_EQ(audit.intact, model.files().size() - 1);
}

/** A real file the model does not know about is damage too. */
TEST(ServerClient, AuditCatchesStrayFile)
{
    Server server;
    wl::ServerClient::Config config;
    wl::ServerClient client(config, 9);
    client.createDirs(server.kernel());
    wl::ModelFs model;
    ASSERT_TRUE(client.deliverMail(server.kernel(), model, 0));

    os::Process vandal(4);
    auto fd = server.kernel().vfs().open(
        vandal, config.root + "/docs/stray.tex",
        os::OpenFlags::writeOnly());
    ASSERT_TRUE(fd.ok());
    const std::vector<u8> junk(128, 0x11);
    ASSERT_TRUE(
        server.kernel().vfs().write(vandal, fd.value(), junk).ok());
    wl::tolerate(server.kernel().vfs().close(vandal, fd.value()));

    const auto audit = client.audit(server.kernel(), model);
    EXPECT_EQ(audit.damaged, 1u);
}

/** Mailbox rotation keeps sizes bounded and the model in sync. */
TEST(ServerClient, MailboxRotationMirrored)
{
    Server server;
    wl::ServerClient::Config config;
    config.mailboxes = 2;
    config.mailMin = 3000;
    config.mailMax = 4000;
    config.mailboxRotateBytes = 16'000;
    wl::ServerClient client(config, 10);
    client.createDirs(server.kernel());
    wl::ModelFs model;

    for (int i = 0; i < 40; ++i)
        EXPECT_TRUE(client.deliverMail(server.kernel(), model, 0));
    const auto *contents = model.contents(client.mailboxPath(0));
    ASSERT_NE(contents, nullptr);
    EXPECT_LE(contents->size(), config.mailboxRotateBytes);
    expectModelMatchesVfs(server.kernel(), model);
    EXPECT_EQ(client.audit(server.kernel(), model).damaged, 0u);
}
