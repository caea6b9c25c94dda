#include "lockgraph.hh"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "support/json.hh"

namespace riolint
{

using rio::support::JsonArray;
using rio::support::JsonObject;

namespace
{

std::string
lowered(const std::string &text)
{
    std::string out = text;
    std::transform(out.begin(), out.end(), out.begin(), [](char c) {
        return static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    });
    return out;
}

/** Does this identifier look like a lock-table receiver or argument
 * (locks_, locks, lockTable, ...)? */
bool
looksLikeLockTable(const std::string &ident)
{
    return lowered(ident).find("lock") != std::string::npos;
}

/** Operations that can crash the simulated machine or advance
 * simulated time: the roots of the R8 crash-capable closure. */
const std::set<std::string> &
crashPrimitives()
{
    static const std::set<std::string> kPrims = {
        "crash",     "advance",   "enter",     "drain",
        "queueWrite", "retryRead", "retryWrite",
    };
    return kPrims;
}

} // namespace

LockAnalysis::LockAnalysis(const CallGraph &graph) : graph_(graph) {}

bool
LockAnalysis::exempt(const Function &fn) const
{
    // The lock implementation itself (LockTable and its nested
    // Guard) manipulates generic lock ids; its bodies are not
    // acquisition sites of named kernel locks.
    return fn.qualified.find("LockTable") != std::string::npos;
}

int
LockAnalysis::rankOf(const std::string &lock) const
{
    auto it = ranks_.find(lock);
    return it == ranks_.end() ? 0 : it->second.rank;
}

void
LockAnalysis::harvestRankDecls(std::vector<RawFinding> &out)
{
    for (std::size_t f = 0; f < graph_.fileCount(); ++f) {
        for (const RankNote &note : graph_.file(f).scan.ranks) {
            auto it = ranks_.find(note.lock);
            if (it == ranks_.end()) {
                ranks_.emplace(note.lock,
                               RankDecl{note.rank, f, note.line});
                lockNames_.insert(note.lock);
            } else if (it->second.rank != note.rank) {
                std::ostringstream msg;
                msg << "conflicting riolint:rank declarations for "
                    << note.lock << ": " << it->second.rank
                    << " (first seen) vs " << note.rank;
                out.push_back({Rule::R3LockOrder, f, note.line,
                               msg.str()});
            }
        }
    }
}

void
LockAnalysis::checkAddSites(std::vector<RawFinding> &out)
{
    for (std::size_t f = 0; f < graph_.fileCount(); ++f) {
        const SourceFile &file = graph_.file(f);
        const auto &toks = file.scan.toks;

        // Bind each rank note to the code line it covers, the same
        // way allow annotations bind.
        const AllowMap cover(file.scan);
        std::map<int, const RankNote *> noteAt;
        for (const RankNote &note : file.scan.ranks) {
            const int line = cover.coveredLine(note.line);
            if (line >= 0)
                noteAt[line] = &note;
        }

        for (std::size_t i = 2; i + 1 < toks.size(); ++i) {
            if (toks[i].kind != 'i' || toks[i].text != "add" ||
                toks[i + 1].text != "(")
                continue;
            const std::string &link = toks[i - 1].text;
            if (link != "." && link != "->")
                continue;
            if (toks[i - 2].kind != 'i' ||
                !looksLikeLockTable(toks[i - 2].text))
                continue;

            const int line = toks[i].line;
            auto note = noteAt.find(line);
            if (note == noteAt.end()) {
                out.push_back(
                    {Rule::R3LockOrder, f, line,
                     "LockTable::add without a riolint:rank(name, N)"
                     " annotation; every lock declares its lattice "
                     "rank beside its add site"});
                continue;
            }
            // Anti-drift: the annotation must name the variable the
            // id is stored into, and the declared rank literal must
            // appear in the call's arguments.
            std::string lhs;
            if (i >= 4 && toks[i - 3].text == "=" &&
                toks[i - 4].kind == 'i')
                lhs = toks[i - 4].text;
            if (!lhs.empty() && lhs != note->second->lock) {
                out.push_back({Rule::R3LockOrder, f, line,
                               "riolint:rank annotation names " +
                                   note->second->lock +
                                   " but the lock id is stored in " +
                                   lhs});
            }
            const std::size_t close = matchForward(toks, i + 1);
            const std::string wanted =
                std::to_string(note->second->rank);
            bool literalSeen = false;
            for (std::size_t j = i + 2; j < close; ++j) {
                if (toks[j].kind == 'n' && toks[j].text == wanted)
                    literalSeen = true;
            }
            if (!literalSeen) {
                out.push_back(
                    {Rule::R3LockOrder, f, line,
                     "riolint:rank declares rank " + wanted +
                         " but the add call does not pass that "
                         "literal; static lattice and runtime "
                         "lockdep would drift"});
            }
        }
    }
}

void
LockAnalysis::extractEvents()
{
    const auto &fns = graph_.functions();
    events_.assign(fns.size(), {});

    for (std::size_t fi = 0; fi < fns.size(); ++fi) {
        const Function &fn = fns[fi];
        if (exempt(fn))
            continue;
        const auto &toks = graph_.file(fn.fileIndex).scan.toks;

        std::map<std::size_t, std::size_t> callAt;
        for (std::size_t c = 0; c < fn.calls.size(); ++c)
            callAt[fn.calls[c].tokIndex] = c;

        struct ActiveGuard
        {
            std::string lock;
            int depth;
        };
        std::vector<ActiveGuard> guards;
        int depth = 0;
        std::vector<LockEvent> &events = events_[fi];

        for (std::size_t k = fn.bodyBegin;
             k <= fn.bodyEnd && k < toks.size(); ++k) {
            const Tok &t = toks[k];
            if (t.text == "{") {
                ++depth;
                continue;
            }
            if (t.text == "}") {
                while (!guards.empty() &&
                       guards.back().depth == depth) {
                    LockEvent ev;
                    ev.kind = LockEvent::Release;
                    ev.lock = guards.back().lock;
                    ev.guard = true;
                    ev.line = t.line;
                    events.push_back(std::move(ev));
                    guards.pop_back();
                }
                --depth;
                continue;
            }
            if (t.kind != 'i')
                continue;

            // LockTable::Guard name(locks_, <lock>);
            if (t.text == "Guard") {
                std::size_t j = k + 1;
                if (j < toks.size() && toks[j].kind == 'i')
                    ++j; // Guard variable name.
                if (j + 3 < toks.size() && toks[j].text == "(" &&
                    toks[j + 1].kind == 'i' &&
                    looksLikeLockTable(toks[j + 1].text) &&
                    toks[j + 2].text == "," &&
                    toks[j + 3].kind == 'i') {
                    LockEvent ev;
                    ev.kind = LockEvent::Acquire;
                    ev.lock = toks[j + 3].text;
                    ev.guard = true;
                    ev.line = toks[j + 3].line;
                    events.push_back(std::move(ev));
                    guards.push_back({toks[j + 3].text, depth});
                    lockNames_.insert(toks[j + 3].text);
                }
                continue;
            }
            // locks_.acquire(<lock>) / release / releaseQuiet.
            const bool isAcquire = t.text == "acquire";
            const bool isRelease =
                t.text == "release" || t.text == "releaseQuiet";
            if ((isAcquire || isRelease) && k >= 2 &&
                k + 2 < toks.size() && toks[k + 1].text == "(" &&
                (toks[k - 1].text == "." ||
                 toks[k - 1].text == "->") &&
                toks[k - 2].kind == 'i' &&
                looksLikeLockTable(toks[k - 2].text) &&
                toks[k + 2].kind == 'i') {
                LockEvent ev;
                ev.kind = isAcquire ? LockEvent::Acquire
                                    : LockEvent::Release;
                ev.lock = toks[k + 2].text;
                ev.guard = false;
                ev.line = t.line;
                events.push_back(std::move(ev));
                lockNames_.insert(toks[k + 2].text);
                continue;
            }
            auto call = callAt.find(k);
            if (call != callAt.end()) {
                LockEvent ev;
                ev.kind = LockEvent::Call;
                ev.callIdx = call->second;
                ev.line = t.line;
                events.push_back(std::move(ev));
            }
        }
    }
}

void
LockAnalysis::propagateSummaries()
{
    const auto &fns = graph_.functions();
    transAcquires_.assign(fns.size(), {});
    transCrash_.assign(fns.size(), 0);

    for (std::size_t fi = 0; fi < fns.size(); ++fi) {
        for (const LockEvent &ev : events_[fi]) {
            if (ev.kind == LockEvent::Acquire)
                transAcquires_[fi].insert(ev.lock);
        }
        for (const CallSite &call : fns[fi].calls) {
            if (crashPrimitives().count(call.name))
                transCrash_[fi] = 1;
        }
    }

    bool changed = true;
    int passes = 0;
    while (changed && passes < 30) {
        changed = false;
        ++passes;
        for (std::size_t fi = 0; fi < fns.size(); ++fi) {
            for (const CallSite &call : fns[fi].calls) {
                for (std::size_t target :
                     graph_.resolve(fns[fi], call)) {
                    for (const std::string &lock :
                         transAcquires_[target]) {
                        if (transAcquires_[fi].insert(lock).second)
                            changed = true;
                    }
                    if (transCrash_[target] && !transCrash_[fi]) {
                        transCrash_[fi] = 1;
                        changed = true;
                    }
                }
            }
        }
    }
}

void
LockAnalysis::analyzeFunctions(std::vector<RawFinding> &out)
{
    const auto &fns = graph_.functions();

    for (std::size_t fi = 0; fi < fns.size(); ++fi) {
        const Function &fn = fns[fi];
        struct Held
        {
            std::string lock;
            bool bare;
            int line;
        };
        std::vector<Held> held;
        std::set<std::string> r8Flagged;

        auto latticeCheck = [&](const std::string &incoming,
                                const Held &holding, int line,
                                const std::string &via) {
            const int inRank = rankOf(incoming);
            const int heldRank = rankOf(holding.lock);
            if (inRank == 0 || heldRank == 0 || inRank > heldRank)
                return;
            std::ostringstream msg;
            msg << "acquires " << incoming << " (rank " << inRank
                << ") while holding " << holding.lock << " (rank "
                << heldRank << ")";
            if (!via.empty())
                msg << " via call to " << via << "()";
            msg << "; declared ranks must strictly increase "
                   "inward";
            out.push_back({Rule::R3LockOrder, fn.fileIndex, line,
                           msg.str()});
        };

        for (const LockEvent &ev : events_[fi]) {
            if (ev.kind == LockEvent::Acquire) {
                for (const Held &h : held) {
                    const auto key =
                        std::make_pair(h.lock, ev.lock);
                    if (!edges_.count(key)) {
                        edges_[key] = {"", fn.fileIndex, ev.line};
                    }
                    latticeCheck(ev.lock, h, ev.line, "");
                }
                held.push_back({ev.lock, !ev.guard, ev.line});
                continue;
            }
            if (ev.kind == LockEvent::Release) {
                for (auto it = held.rbegin(); it != held.rend();
                     ++it) {
                    if (it->lock == ev.lock) {
                        held.erase(std::next(it).base());
                        break;
                    }
                }
                continue;
            }
            // Call: fold in the callee's transitive lock set and
            // crash capability.
            const CallSite &call = fn.calls[ev.callIdx];
            const auto targets = graph_.resolve(fn, call);
            std::set<std::string> acquired;
            bool crashCapable =
                crashPrimitives().count(call.name) > 0;
            for (std::size_t target : targets) {
                acquired.insert(transAcquires_[target].begin(),
                                transAcquires_[target].end());
                if (transCrash_[target])
                    crashCapable = true;
            }
            for (const Held &h : held) {
                for (const std::string &lock : acquired) {
                    const auto key = std::make_pair(h.lock, lock);
                    const bool fresh = !edges_.count(key);
                    if (fresh) {
                        edges_[key] = {call.name, fn.fileIndex,
                                       ev.line};
                        latticeCheck(lock, h, ev.line, call.name);
                    }
                }
                if (h.bare && crashCapable &&
                    r8Flagged.insert(h.lock).second) {
                    out.push_back(
                        {Rule::R8CrashWhileLocked, fn.fileIndex,
                         ev.line,
                         "crash-capable call " + call.name +
                             "() while " + h.lock +
                             " is held by a bare acquire(); a "
                             "crash unwind skips the release — "
                             "use LockTable::Guard"});
                }
            }
        }
        for (const Held &h : held) {
            if (!h.bare)
                continue;
            out.push_back(
                {Rule::R8CrashWhileLocked, fn.fileIndex, h.line,
                 "acquire(" + h.lock +
                     ") without a matching release on every path; "
                     "a crash here leaves the lock held and the "
                     "next acquire deadlocks"});
        }
    }
}

void
LockAnalysis::findCycles(std::vector<RawFinding> &out)
{
    // Tarjan SCC over the lock graph; an SCC with more than one
    // node, or a self-edge, is deadlock potential.
    std::vector<std::string> nodes(lockNames_.begin(),
                                   lockNames_.end());
    std::map<std::string, std::size_t> index;
    for (std::size_t i = 0; i < nodes.size(); ++i)
        index[nodes[i]] = i;
    std::vector<std::vector<std::size_t>> adj(nodes.size());
    for (const auto &[key, info] : edges_) {
        if (index.count(key.first) && index.count(key.second))
            adj[index[key.first]].push_back(index[key.second]);
    }

    std::vector<int> low(nodes.size(), -1);
    std::vector<int> num(nodes.size(), -1);
    std::vector<char> onStack(nodes.size(), 0);
    std::vector<std::size_t> stack;
    int counter = 0;
    std::vector<std::vector<std::size_t>> sccs;

    // Iterative Tarjan (explicit work stack).
    struct Frame
    {
        std::size_t node;
        std::size_t edge;
    };
    for (std::size_t start = 0; start < nodes.size(); ++start) {
        if (num[start] != -1)
            continue;
        std::vector<Frame> work{{start, 0}};
        while (!work.empty()) {
            Frame &frame = work.back();
            const std::size_t v = frame.node;
            if (frame.edge == 0) {
                num[v] = low[v] = counter++;
                stack.push_back(v);
                onStack[v] = 1;
            }
            bool descended = false;
            while (frame.edge < adj[v].size()) {
                const std::size_t w = adj[v][frame.edge++];
                if (num[w] == -1) {
                    work.push_back({w, 0});
                    descended = true;
                    break;
                }
                if (onStack[w])
                    low[v] = std::min(low[v], num[w]);
            }
            if (descended)
                continue;
            if (low[v] == num[v]) {
                std::vector<std::size_t> scc;
                while (true) {
                    const std::size_t w = stack.back();
                    stack.pop_back();
                    onStack[w] = 0;
                    scc.push_back(w);
                    if (w == v)
                        break;
                }
                sccs.push_back(std::move(scc));
            }
            work.pop_back();
            if (!work.empty()) {
                Frame &parent = work.back();
                low[parent.node] =
                    std::min(low[parent.node], low[v]);
            }
        }
    }

    for (const auto &scc : sccs) {
        const bool selfLoop =
            scc.size() == 1 &&
            edges_.count({nodes[scc[0]], nodes[scc[0]]});
        if (scc.size() < 2 && !selfLoop)
            continue;
        std::vector<std::string> members;
        for (std::size_t v : scc)
            members.push_back(nodes[v]);
        std::sort(members.begin(), members.end());

        std::ostringstream msg;
        msg << "deadlock-potential cycle in the "
               "acquired-while-held graph:";
        std::size_t firstFile = 0;
        int firstLine = 0;
        bool haveSite = false;
        const std::set<std::string> memberSet(members.begin(),
                                              members.end());
        for (const auto &[key, info] : edges_) {
            if (!memberSet.count(key.first) ||
                !memberSet.count(key.second))
                continue;
            msg << " " << key.first << " -> " << key.second;
            if (!info.via.empty())
                msg << " (via " << info.via << "())";
            msg << ";";
            if (!haveSite) {
                firstFile = info.fileIndex;
                firstLine = info.line;
                haveSite = true;
            }
        }
        msg << " break the cycle or re-rank the locks";
        out.push_back({Rule::R7DeadlockCycle, firstFile, firstLine,
                       msg.str()});
        cycles_.push_back(std::move(members));
    }
}

void
LockAnalysis::run(std::vector<RawFinding> &out)
{
    harvestRankDecls(out);
    checkAddSites(out);
    extractEvents();
    propagateSummaries();
    analyzeFunctions(out);
    findCycles(out);
}

std::string
LockAnalysis::dot() const
{
    std::ostringstream out;
    out << "digraph rio_locks {\n";
    out << "  rankdir=LR;\n";
    out << "  node [shape=box, fontname=\"monospace\"];\n";
    std::set<std::string> inCycle;
    for (const auto &cycle : cycles_) {
        for (const std::string &lock : cycle)
            inCycle.insert(lock);
    }
    for (const std::string &lock : lockNames_) {
        out << "  \"" << lock << "\" [label=\"" << lock;
        const int rank = rankOf(lock);
        if (rank != 0)
            out << "\\nrank " << rank;
        else
            out << "\\nunranked";
        out << "\"";
        if (inCycle.count(lock))
            out << ", color=red";
        out << "];\n";
    }
    for (const auto &[key, info] : edges_) {
        out << "  \"" << key.first << "\" -> \"" << key.second
            << "\" [label=\"";
        if (!info.via.empty())
            out << "via " << info.via << "\\n";
        out << graph_.file(info.fileIndex).path << ":" << info.line
            << "\"";
        if (inCycle.count(key.first) && inCycle.count(key.second))
            out << ", color=red";
        out << "];\n";
    }
    out << "}\n";
    return out.str();
}

std::string
LockAnalysis::jsonReport() const
{
    auto site = [this](std::size_t fileIndex, int line) {
        return graph_.file(fileIndex).path + ":" + std::to_string(line);
    };
    JsonArray locks;
    for (const std::string &lock : lockNames_) {
        JsonObject entry;
        entry.put("name", lock).put("rank", rankOf(lock));
        auto decl = ranks_.find(lock);
        if (decl != ranks_.end()) {
            entry.put("declared",
                      site(decl->second.fileIndex, decl->second.line));
        }
        locks.push(entry);
    }
    JsonArray edges;
    for (const auto &[key, info] : edges_) {
        edges.push(JsonObject()
                       .put("from", key.first)
                       .put("to", key.second)
                       .put("via", info.via)
                       .put("site", site(info.fileIndex, info.line)));
    }
    JsonArray cycles;
    for (const auto &cycle : cycles_) {
        JsonArray names;
        for (const std::string &name : cycle)
            names.push(name);
        cycles.push(names);
    }
    return JsonObject()
               .put("locks", locks)
               .put("edges", edges)
               .put("cycles", cycles)
               .str() +
           "\n";
}

} // namespace riolint
