/**
 * @file
 * Bench-side spans: the benchmark wraps each call it makes into a
 * layer (an op, the fsync inside it, each warm-reboot phase, the
 * audit, a campaign attempt) in a span that records host time and
 * simulated time at both edges, its parent span and its op id.
 *
 * Spans are folded into per-name aggregates as they close (count,
 * total, self time, p50/p99), so memory stays bounded on
 * million-op runs; only the spans destined for the Chrome trace are
 * kept raw: those of the first kTraceOps ops plus every span that is
 * not part of an op. A disabled Tracer records nothing and costs one
 * branch per span edge — it never reads either clock.
 *
 * Spans only read the simulated clock, so tracing can never change a
 * simulated result; the smoke test checks exactly that.
 */

#ifndef RIO_RIOBENCH_SPANS_HH
#define RIO_RIOBENCH_SPANS_HH

#include <map>
#include <string>
#include <vector>

#include "emit_bench.hh"
#include "sim/clock.hh"
#include "support/types.hh"

namespace rio::riobench
{

/** Host time in ns — CPU time of the calling thread. Reporting
 *  only: never fed to the simulation. */
u64 hostNowNs();

/** Op id for spans that belong to no op (setup, recovery, ...). */
constexpr u64 kNoOp = ~0ull;

class Tracer
{
  public:
    /** Ops whose spans are kept raw for the Chrome trace. */
    static constexpr u64 kTraceOps = 5000;

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** RAII span; @p clock may be null when no simulated machine is
     *  visible to the bench (a campaign attempt owns its own). */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name, u64 opId,
              const sim::SimClock *clock);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Suffix the aggregate name, e.g. attempt -> attempt.crashed. */
        void setTag(const char *tag) { tag_ = tag; }

      private:
        Tracer &tracer_;
        const char *tag_ = nullptr;
    };

    struct Aggregate
    {
        u64 count = 0;
        u64 totalHostNs = 0;
        u64 totalSimNs = 0;
        u64 selfHostNs = 0;
        u64 selfSimNs = 0;
        std::vector<u64> hostNs; ///< Per-span durations.
        std::vector<u64> simNs;
    };

    /** Aggregate for @p name, or null if no such span closed. */
    const Aggregate *find(const std::string &name) const;

    /** Per-span aggregates: count, totals, self time, p50/p99. */
    benchio::JsonObject aggregatesJson() const;

    /** Chrome trace-event JSON (array form) of the kept spans. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Open
    {
        const char *name;
        u64 opId;
        const sim::SimClock *clock;
        u64 hostStart;
        u64 simStart;
        u64 childHostNs = 0;
        u64 childSimNs = 0;
        int keptIndex = -1; ///< Slot in kept_, or -1.
    };

    struct Kept
    {
        std::string name;
        std::string parent;
        u64 opId;
        u64 hostStart;
        u64 hostEnd = 0;
        u64 simStart;
        u64 simEnd = 0;
    };

    void begin(const char *name, u64 opId, const sim::SimClock *clock);
    void end(const char *tag);

    bool enabled_;
    std::vector<Open> stack_;
    std::map<std::string, Aggregate> aggregates_;
    std::vector<Kept> kept_;
    u64 origin_ = 0; ///< Host time of the first span (trace ts 0).
};

} // namespace rio::riobench

#endif // RIO_RIOBENCH_SPANS_HH
