#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>

#include "oploop.hh"

namespace rio::riobench
{

u64
hostNowNs()
{
    // CPU time of the calling thread: the benchmark is one thread that
    // never blocks, so this is its run time without the time other
    // load on the host preempts it.
    timespec ts{};
    // riolint:allow(R2) host clock measures the simulator's own speed;
    // simulated results come from the sim clock and never see it.
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<u64>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<u64>(ts.tv_nsec);
}

Tracer::Scope::Scope(Tracer &tracer, const char *name, u64 opId,
                     const sim::SimClock *clock)
    : tracer_(tracer)
{
    if (tracer_.enabled_)
        tracer_.begin(name, opId, clock);
}

Tracer::Scope::~Scope()
{
    if (tracer_.enabled_)
        tracer_.end(tag_);
}

void
Tracer::begin(const char *name, u64 opId, const sim::SimClock *clock)
{
    Open open{name, opId, clock, hostNowNs(),
              clock != nullptr ? clock->now() : 0};
    if (origin_ == 0)
        origin_ = open.hostStart;
    // Keep every span outside the op loop, and the op spans of the
    // first kTraceOps ops, so the trace file stays bounded.
    if (opId == kNoOp || opId < kTraceOps) {
        open.keptIndex = static_cast<int>(kept_.size());
        kept_.push_back({name, stack_.empty() ? "" : stack_.back().name,
                         opId, open.hostStart, 0, open.simStart, 0});
    }
    stack_.push_back(open);
}

void
Tracer::end(const char *tag)
{
    const Open open = stack_.back();
    stack_.pop_back();
    const u64 hostEnd = hostNowNs();
    const u64 simEnd = open.clock != nullptr ? open.clock->now() : 0;
    const u64 hostNs = hostEnd - open.hostStart;
    const u64 simNs = simEnd - open.simStart;

    std::string name = open.name;
    if (tag != nullptr)
        name = name + "." + tag;
    Aggregate &agg = aggregates_[name];
    ++agg.count;
    agg.totalHostNs += hostNs;
    agg.totalSimNs += simNs;
    agg.selfHostNs += hostNs - std::min(hostNs, open.childHostNs);
    agg.selfSimNs += simNs - std::min(simNs, open.childSimNs);
    agg.hostNs.push_back(hostNs);
    agg.simNs.push_back(simNs);

    if (!stack_.empty()) {
        stack_.back().childHostNs += hostNs;
        stack_.back().childSimNs += simNs;
    }
    if (open.keptIndex >= 0) {
        Kept &kept = kept_[static_cast<std::size_t>(open.keptIndex)];
        kept.name = std::move(name);
        kept.hostEnd = hostEnd;
        kept.simEnd = simEnd;
    }
}

const Tracer::Aggregate *
Tracer::find(const std::string &name) const
{
    const auto it = aggregates_.find(name);
    return it == aggregates_.end() ? nullptr : &it->second;
}

benchio::JsonObject
Tracer::aggregatesJson() const
{
    benchio::JsonObject all;
    for (const auto &[name, agg] : aggregates_) {
        benchio::JsonObject obj;
        obj.put("count", agg.count);
        obj.put("total_host_ns", agg.totalHostNs);
        obj.put("self_host_ns", agg.selfHostNs);
        obj.put("p50_host_ns", percentileOf(agg.hostNs, 50));
        obj.put("p99_host_ns", percentileOf(agg.hostNs, 99));
        obj.put("total_sim_ns", agg.totalSimNs);
        obj.put("self_sim_ns", agg.selfSimNs);
        obj.put("p50_sim_ns", percentileOf(agg.simNs, 50));
        obj.put("p99_sim_ns", percentileOf(agg.simNs, 99));
        all.put(name, obj);
    }
    return all;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    // Chrome's JSON Array Format: every event is an object rendered by
    // benchio::JsonObject; only the enclosing brackets are added here.
    std::ofstream out(path);
    out << "[";
    bool first = true;
    for (const Kept &kept : kept_) {
        benchio::JsonObject args;
        if (kept.opId != kNoOp)
            args.put("op", kept.opId);
        args.put("parent", kept.parent);
        args.put("sim_start_ns", kept.simStart);
        args.put("sim_dur_ns", kept.simEnd - kept.simStart);
        benchio::JsonObject event;
        event.put("name", kept.name);
        event.put("cat", "riobench");
        event.put("ph", "X");
        event.put("ts",
                  static_cast<double>(kept.hostStart - origin_) / 1e3);
        event.put("dur",
                  static_cast<double>(kept.hostEnd - kept.hostStart) /
                      1e3);
        event.put("pid", 1);
        event.put("tid", 1);
        event.put("args", args);
        out << (first ? "\n" : ",\n") << event.str(1);
        first = false;
    }
    out << "\n]\n";
    out.close();
    if (out.fail()) {
        std::fprintf(stderr, "riobench: failed writing %s\n",
                     path.c_str());
        return false;
    }
    return true;
}

} // namespace rio::riobench
