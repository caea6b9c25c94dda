/**
 * @file
 * The departmental file-server client (paper section 7), shared by
 * examples/file_server, riobench's server op stream and the
 * translation-cache equivalence test: mail deliveries append to
 * mailboxes, document saves overwrite files, reads fetch them back.
 * Every completed operation is mirrored into a host-side
 * ModelFs oracle with the *actual* outcome of each system call — an
 * open that truncated, a write that failed or was short, a rotation —
 * so the oracle never diverges from the simulated file system on
 * legitimate paths and the end-of-run audit can attribute every
 * mismatch to real damage.
 */

#ifndef RIO_WL_SERVERCLIENT_HH
#define RIO_WL_SERVERCLIENT_HH

#include <string>

#include "os/vfs.hh"
#include "support/rng.hh"
#include "support/types.hh"
#include "workload/modelfs.hh"

namespace rio::os
{
class Kernel;
}

namespace rio::wl
{

class ServerClient
{
  public:
    struct Config
    {
        std::string root = "/server";
        u32 mailboxes = 8;
        u32 docs = 32;
        u64 mailMin = 256;   ///< Mail message size range (bytes).
        u64 mailMax = 4096;
        u64 docMin = 2048;   ///< Document size range (bytes).
        u64 docMax = 32768;
        /** Truncate a mailbox before a delivery that would push it
         * past this size; 0 disables rotation. Bounds disk usage in
         * long sustained runs. */
        u64 mailboxRotateBytes = 0;
    };

    ServerClient(const Config &config, u64 seed);

    /** mkdir the server directory tree (idempotent). */
    void createDirs(os::Kernel &kernel);

    /** @{ One client request against a specific target; returns
     * false if the operation did not fully succeed. The model is
     * always updated to mirror what actually happened. */
    bool deliverMail(os::Kernel &kernel, ModelFs &model, u64 box);
    bool overwriteDoc(os::Kernel &kernel, ModelFs &model, u64 doc);
    bool readDoc(os::Kernel &kernel, ModelFs &model, u64 doc);
    /** @} */

    /** One uniformly-targeted request with the historical op mix
     * (50% mail, 30% save, 20% read). */
    void request(os::Kernel &kernel, ModelFs &model);

    /**
     * Model/file-system divergences observed by readDoc on the way
     * (wrong size or wrong bytes). Stays 0 in a healthy run.
     */
    u64 readMismatches() const { return readMismatches_; }

    struct AuditResult
    {
        u64 intact = 0;
        u64 damaged = 0;
    };

    /**
     * Full audit: every model file must exist with exactly the
     * expected size and bytes, and the server directories must hold
     * no files the model does not know about (a file whose removal
     * or truncation was mirrored but which survived on disk is
     * damage too — the pre-fix audit missed both of these).
     */
    AuditResult audit(os::Kernel &kernel, const ModelFs &model);

    std::string mailboxPath(u64 box) const;
    std::string docPath(u64 doc) const;

  private:
    Config config_;
    support::Rng rng_;
    os::Process proc_;
    u64 readMismatches_ = 0;
};

} // namespace rio::wl

#endif // RIO_WL_SERVERCLIENT_HH
