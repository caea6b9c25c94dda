/**
 * @file
 * The file-server op stream shared by the riobench server workloads:
 * zipf-popular mailboxes and documents and an append-mail /
 * overwrite-doc / read mix, drawn from one seeded Rng exactly the way
 * bench/bench_server.cc draws it (same seed derivation, same draw
 * order), so a riobench server run and a bench_server run at one seed
 * issue the same requests. Latencies are kept as raw samples per op
 * class, so percentiles are exact rather than histogram bucket bounds.
 */

#ifndef RIO_RIOBENCH_OPLOOP_HH
#define RIO_RIOBENCH_OPLOOP_HH

#include <array>
#include <vector>

#include "harness/bench.hh"
#include "support/rng.hh"
#include "support/types.hh"

namespace rio::riobench
{

enum class OpClass : u8
{
    Mail, ///< Append a message to a mailbox.
    Save, ///< Overwrite a document.
    Read, ///< Read a document back and compare it with the model.
};

constexpr std::size_t kNumOpClasses = 3;

/** Span / metric name of an op class: "mail", "save", "read". */
const char *opClassName(OpClass cls);

struct OpMix
{
    u32 mailboxes = 64;
    u32 docs = 256;
    double theta = 0.99;
    double mail = 0.5; ///< P(append-mail).
    double save = 0.3; ///< P(overwrite-doc); the rest are reads.
};

/** One client's request stream. */
class OpStream
{
  public:
    struct Op
    {
        OpClass cls;
        u64 target; ///< Mailbox or document rank (0 = most popular).
    };

    OpStream(const OpMix &mix, u64 seed);

    Op next();

    /** The ServerClient seed bench_server pairs with this stream. */
    static u64 clientSeed(u64 seed) { return seed * 2654435761u + 7; }

  private:
    OpMix mix_;
    support::Rng pick_;
    harness::Zipfian zipfMail_;
    harness::Zipfian zipfDocs_;
};

/** Exact nearest-rank percentile @p p in [0, 100]; 0 if empty. */
u64 percentileOf(std::vector<u64> samples, double p);

/** Median (mean of the middle two for an even count); 0 if empty. */
double medianOf(std::vector<double> values);

/** Raw latency samples, overall and per op class. */
class OpLatencies
{
  public:
    void record(OpClass cls, u64 ns);

    u64 count() const { return all_.size(); }

    u64 percentile(double p) const { return percentileOf(all_, p); }
    u64 percentile(OpClass cls, double p) const;

  private:
    std::vector<u64> all_;
    std::array<std::vector<u64>, kNumOpClasses> byClass_;
};

/**
 * Host time of a closed op loop, cut into equal-op windows. The
 * throughput metric is the 80th-percentile window rate: load from
 * other tenants of the host only ever slows a window down, and on a
 * shared VM it comes in bursts of seconds, so the faster windows
 * measure the simulator and the slower ones measure the neighbours.
 * (Ten-seed spreads under neighbour load: median 25% / 10% / 4% on
 * mail_journal / crash_recover / mail_rio, 80th percentile 17% / 7% /
 * 3%; equal when the host is quiet.) The clock is read only at window
 * and segment edges, never per op.
 */
class OpWindows
{
  public:
    /** Default window count. */
    static constexpr u64 kWindows = 20;

    OpWindows(u64 totalOps, u64 windows);

    /** @{ An op segment starts / ends; time between segments (a crash
     *  recovery) is not op time. */
    void resume();
    void pause();
    /** @} */

    /** Op @p index (counting from 0) finished. */
    void
    opDone(u64 index)
    {
        if (index + 1 == nextEdge_)
            closeWindow();
    }

    /** 80th percentile over the windows of ops per host second. */
    double sustainedRate() const;

    /** Every window's ops per host second, in order. */
    std::vector<double> rates() const;

  private:
    void closeWindow();

    u64 totalOps_;
    std::vector<u64> windowNs_;
    std::size_t window_ = 0;
    u64 nextEdge_ = 0;
    u64 last_ = 0;
};

} // namespace rio::riobench

#endif // RIO_RIOBENCH_OPLOOP_HH
