#include "lint.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "callgraph.hh"
#include "lockgraph.hh"
#include "support/json.hh"

namespace riolint
{

using rio::support::JsonArray;
using rio::support::JsonObject;

namespace
{

// ---------------------------------------------------------------------
// Per-file rule machinery
// ---------------------------------------------------------------------

struct Linter
{
    const std::string &path;
    const std::vector<Tok> &toks;
    const AllowMap &allow;
    std::vector<Finding> &out;

    void
    flag(Rule rule, int line, std::string message)
    {
        Finding finding;
        finding.rule = rule;
        finding.file = path;
        finding.line = line;
        finding.message = std::move(message);
        if (const Annotation *note = allow.lookup(line, rule)) {
            finding.allowed = true;
            finding.reason = note->reason;
        }
        out.push_back(std::move(finding));
    }

    const Tok *
    at(std::size_t i) const
    {
        return i < toks.size() ? &toks[i] : nullptr;
    }

    bool
    nextIs(std::size_t i, const char *text) const
    {
        const Tok *tok = at(i + 1);
        return tok && tok->text == text;
    }

    bool
    prevIs(std::size_t i, const char *text) const
    {
        return i > 0 && toks[i - 1].text == text;
    }
};

bool
pathStartsWith(const std::string &path,
               std::initializer_list<const char *> prefixes)
{
    for (const char *prefix : prefixes) {
        if (path.rfind(prefix, 0) == 0)
            return true;
    }
    return false;
}

// --- R1: checked-store discipline ------------------------------------

/**
 * Files allowed to touch memory images directly: the checked store
 * path itself and the support library's bounds-checked accessors.
 * Everything else — including the fault injectors, which scribble on
 * purpose — must carry a riolint:allow(R1) annotation.
 */
constexpr std::initializer_list<const char *> kR1Whitelist = {
    "src/sim/membus", "src/sim/physmem", "src/sim/disk",
    "src/sim/nvregion",
    "src/core/warmreboot", "src/support/",
};

void
runR1(Linter &lint)
{
    if (pathStartsWith(lint.path, kR1Whitelist))
        return;
    static const std::set<std::string> kRawCopies = {
        "memcpy", "memmove", "memset", "bcopy", "bzero_raw",
    };
    const auto &toks = lint.toks;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Tok &tok = toks[i];
        if (tok.kind != 'i')
            continue;
        if (kRawCopies.count(tok.text) && lint.nextIs(i, "(")) {
            lint.flag(Rule::R1CheckedStore, tok.line,
                      tok.text +
                          " bypasses the checked store path; use "
                          "MemBus or support/bytes.hh accessors");
        } else if (tok.text == "raw" && lint.nextIs(i, "(") &&
                   (lint.prevIs(i, ".") || lint.prevIs(i, "->"))) {
            lint.flag(Rule::R1CheckedStore, tok.line,
                      "PhysMem::raw() exposes an unchecked pointer "
                      "into the memory image");
        } else if (tok.text == "store_") {
            lint.flag(Rule::R1CheckedStore, tok.line,
                      "direct access to Disk::store_ bypasses the "
                      "simulated I/O path");
        } else if (tok.text == "hostSector" && lint.nextIs(i, "(") &&
                   (lint.prevIs(i, ".") || lint.prevIs(i, "->"))) {
            lint.flag(Rule::R1CheckedStore, tok.line,
                      "Disk::hostSector() exposes a writable window "
                      "past the simulated I/O path; fault injectors "
                      "must annotate the scribble");
        }
    }
}

// --- R2: determinism -------------------------------------------------

constexpr std::initializer_list<const char *> kR2Whitelist = {
    "src/support/rng", "src/sim/clock",
};

void
runR2(Linter &lint)
{
    if (pathStartsWith(lint.path, kR2Whitelist))
        return;
    static const std::set<std::string> kEntropy = {
        "rand",          "srand",     "drand48",
        "random_device", "mt19937",   "mt19937_64",
        "default_random_engine",
    };
    static const std::set<std::string> kWallClock = {
        "system_clock", "steady_clock", "high_resolution_clock",
        "gettimeofday", "clock_gettime",
    };
    const auto &toks = lint.toks;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Tok &tok = toks[i];
        if (tok.kind != 'i')
            continue;
        if (kEntropy.count(tok.text)) {
            lint.flag(Rule::R2Determinism, tok.line,
                      tok.text +
                          " breaks seed-reproducibility; use "
                          "support::Rng");
        } else if (kWallClock.count(tok.text)) {
            lint.flag(Rule::R2Determinism, tok.line,
                      tok.text +
                          " reads the host clock; use sim::Clock "
                          "for anything that affects results");
        } else if (tok.text == "time" && lint.nextIs(i, "(") &&
                   !lint.prevIs(i, ".") && !lint.prevIs(i, "->")) {
            lint.flag(Rule::R2Determinism, tok.line,
                      "time() reads the host clock; use sim::Clock");
        }
    }
}

// --- R4: error flow --------------------------------------------------

bool
isStatusType(const std::vector<Tok> &toks, std::size_t i)
{
    return toks[i].text == "OsStatus" || toks[i].text == "Result";
}

/** Index just past a `Result<...>` spelling starting at @p i. */
std::size_t
skipStatusType(const std::vector<Tok> &toks, std::size_t i)
{
    std::size_t j = i + 1;
    if (toks[i].text == "Result" && j < toks.size() &&
        toks[j].text == "<") {
        int angle = 1;
        ++j;
        while (j < toks.size() && angle > 0) {
            if (toks[j].text == "<")
                ++angle;
            else if (toks[j].text == ">")
                --angle;
            ++j;
        }
    }
    return j;
}

/**
 * First token of the postfix chain ending in the call at @p i: walks
 * back over `.`/`->`/`::` links, where each earlier element is an
 * identifier (including `this`) or a balanced `name(...)`/`name[...]`
 * group. `fs.cache().flushQuietly(...)` starts at `fs`.
 */
std::size_t
chainStart(const std::vector<Tok> &toks, std::size_t i)
{
    std::size_t s = i;
    while (s >= 2) {
        const std::string &link = toks[s - 1].text;
        if (link != "." && link != "->" && link != "::")
            break;
        std::size_t e = s - 2;
        if (toks[e].text == ")" || toks[e].text == "]") {
            const std::string closer = toks[e].text;
            const std::string opener = closer == ")" ? "(" : "[";
            int bal = 1;
            std::size_t k = e;
            while (k > 0 && bal > 0) {
                --k;
                if (toks[k].text == closer)
                    ++bal;
                else if (toks[k].text == opener)
                    --bal;
            }
            if (bal != 0)
                break;
            if (k > 0 && toks[k - 1].kind == 'i')
                s = k - 1;
            else
                s = k;
        } else if (toks[e].kind == 'i') {
            s = e;
        } else {
            break;
        }
    }
    return s;
}

/** Is the comma right before token @p commaIdx a statement-level
 * comma operator (vs an argument separator)? Scan left: a `;`/`{`/`}`
 * at depth 0 before any unmatched opening paren means statement
 * level. */
bool
statementComma(const std::vector<Tok> &toks, std::size_t commaIdx)
{
    int bal = 0;
    std::size_t k = commaIdx;
    while (k > 0) {
        --k;
        const std::string &t = toks[k].text;
        if (t == ")" || t == "]") {
            ++bal;
        } else if (t == "(" || t == "[") {
            if (bal == 0)
                return false;
            --bal;
        } else if (bal == 0 &&
                   (t == ";" || t == "{" || t == "}")) {
            return true;
        }
    }
    return true;
}

void
runR4(Linter &lint)
{
    const auto &toks = lint.toks;
    std::set<std::string> statusFns;
    std::set<std::size_t> declNameIdx;

    // Pass 1: declarations. `OsStatus name(` must be [[nodiscard]];
    // Result is [[nodiscard]] class-level, so its functions only
    // feed the local call-site set.
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != 'i' || !isStatusType(toks, i))
            continue;
        std::size_t j = skipStatusType(toks, i);
        // Optional qualification: Class::name
        std::size_t nameIdx = j;
        while (nameIdx + 1 < toks.size() &&
               toks[nameIdx].kind == 'i' &&
               toks[nameIdx + 1].text == "::") {
            nameIdx += 2;
        }
        if (nameIdx >= toks.size() || toks[nameIdx].kind != 'i' ||
            !(nameIdx + 1 < toks.size() &&
              toks[nameIdx + 1].text == "(")) {
            continue;
        }
        declNameIdx.insert(nameIdx);
        statusFns.insert(toks[nameIdx].text);
        if (toks[i].text == "OsStatus") {
            bool nodiscard = false;
            const std::size_t back = i > 6 ? i - 6 : 0;
            for (std::size_t k = back; k < i; ++k) {
                if (toks[k].text == "nodiscard")
                    nodiscard = true;
            }
            if (!nodiscard) {
                lint.flag(Rule::R4ErrorFlow, toks[nameIdx].line,
                          toks[nameIdx].text +
                              " returns OsStatus but is not "
                              "[[nodiscard]]");
            }
        }
    }

    // Pass 2: statement-position calls to local status functions
    // whose result is dropped. The statement position is judged at
    // the *start of the postfix chain*, so `this->f()`, the final
    // call of `a.b().f()`, and both sides of a statement-level comma
    // are all caught; a call whose result feeds a further `.`/`->`
    // member access is consumed and skipped.
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != 'i' || !statusFns.count(toks[i].text) ||
            !lint.nextIs(i, "(") || declNameIdx.count(i)) {
            continue;
        }
        if (i == 0)
            continue;
        const std::size_t close = matchForward(toks, i + 1);
        if (close + 1 < toks.size() &&
            (toks[close + 1].text == "." ||
             toks[close + 1].text == "->")) {
            continue; // Mid-chain: the result is the receiver.
        }
        const std::size_t s = chainStart(toks, i);
        if (s == 0)
            continue;
        const Tok &prev = toks[s - 1];
        bool dropped = false;
        if (prev.text == ";" || prev.text == "{" ||
            prev.text == "}" || prev.text == "else" ||
            prev.text == "do") {
            dropped = true;
        } else if (prev.text == ",") {
            dropped = statementComma(toks, s - 1);
        } else if (prev.text == ")") {
            // Either a cast — (void)call() — or a control clause:
            // if (x) call();. Walk back to the matching '('.
            int parens = 1;
            std::size_t k = s - 1;
            while (k > 0 && parens > 0) {
                --k;
                if (toks[k].text == ")")
                    ++parens;
                else if (toks[k].text == "(")
                    --parens;
            }
            if (k > 0) {
                const std::string &opener = toks[k - 1].text;
                dropped = opener == "if" || opener == "while" ||
                          opener == "for" || opener == "switch";
            }
        }
        if (dropped) {
            lint.flag(Rule::R4ErrorFlow, toks[i].line,
                      "result of " + toks[i].text +
                          "() is dropped; check it or cast to void");
        }
    }
}

// --- R5: registry mutation -------------------------------------------

/** The shadow-page protocol entry points in core/rio.cc — the only
 * code allowed to mutate registry entries through the bus. (The one
 * host-side entry write, a lazy checksum landing in the field its
 * endWrite store left owed, is an annotated R1 site instead.) */
const std::set<std::string> kRegistryWriters = {
    "install",  "setDirty",    "invalidate", "openWrite",
    "endWrite", "commitEntry", "activate",
};

void
runR5(Linter &lint)
{
    static const std::string kRio = "core/rio.cc";
    const bool inRio =
        lint.path.size() >= kRio.size() &&
        lint.path.compare(lint.path.size() - kRio.size(),
                          kRio.size(), kRio) == 0;
    const auto &toks = lint.toks;

    // Track the enclosing function: at namespace depth, remember the
    // last `name(` before the body's '{' (the repo defines functions
    // at namespace scope; constructor initializer lists are frozen
    // out by the ':' state).
    int depth = 0;
    std::string pending;
    std::string current;
    int currentDepth = -1;
    bool frozen = false;

    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Tok &tok = toks[i];
        if (tok.text == "{") {
            ++depth;
            if (!pending.empty() && currentDepth < 0) {
                current = pending;
                currentDepth = depth;
                pending.clear();
            }
            frozen = false;
            continue;
        }
        if (tok.text == "}") {
            --depth;
            if (currentDepth > 0 && depth < currentDepth) {
                current.clear();
                currentDepth = -1;
            }
            continue;
        }
        if (tok.text == ";") {
            pending.clear();
            frozen = false;
            continue;
        }
        if (tok.text == ":" && !pending.empty()) {
            frozen = true; // Constructor initializer list.
            continue;
        }
        if (tok.kind != 'i')
            continue;

        const bool isCall = lint.nextIs(i, "(");
        if (isCall && currentDepth < 0 && !frozen)
            pending = tok.text;

        if (isCall && (tok.text == "writeEntryField32" ||
                       tok.text == "writeEntryField64")) {
            // A declaration (`void writeEntryField32(`) or the
            // definition itself (`RioSystem::writeEntryField32(`)
            // is not a mutation site.
            if (i > 0 && (toks[i - 1].kind == 'i' ||
                          toks[i - 1].text == "::")) {
                continue;
            }
            const bool legal =
                inRio && kRegistryWriters.count(current) > 0;
            if (!legal) {
                lint.flag(Rule::R5RegistryMutation, tok.line,
                          tok.text +
                              " mutates a registry entry outside "
                              "the shadow-page protocol entry "
                              "points in core/rio.cc");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Report formatting
// ---------------------------------------------------------------------

std::string
dirOf(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? std::string(".")
                                      : path.substr(0, slash);
}

struct Tally
{
    int violations = 0;
    int allowed = 0;
};

// ---------------------------------------------------------------------
// Whole-program driver
// ---------------------------------------------------------------------

Report
lintProgram(const std::vector<SourceFile> &files)
{
    Report report;

    std::vector<AllowMap> allows;
    allows.reserve(files.size());
    for (const SourceFile &file : files)
        allows.emplace_back(file.scan);

    // Per-file rules.
    for (std::size_t f = 0; f < files.size(); ++f) {
        Linter lint{files[f].path, files[f].scan.toks, allows[f],
                    report.findings};
        runR1(lint);
        runR2(lint);
        runR4(lint);
        runR5(lint);
    }

    // Whole-program rules over the call graph.
    const CallGraph graph(files);
    std::vector<RawFinding> raw;
    LockAnalysis locks(graph);
    locks.run(raw);
    report.lockDot = locks.dot();
    report.lockJson = locks.jsonReport();

    for (const RawFinding &rf : raw) {
        Finding finding;
        finding.rule = rf.rule;
        finding.file = files[rf.fileIndex].path;
        finding.line = rf.line;
        finding.message = rf.message;
        if (const Annotation *note =
                allows[rf.fileIndex].lookup(rf.line, rf.rule)) {
            finding.allowed = true;
            finding.reason = note->reason;
        }
        report.findings.push_back(std::move(finding));
    }

    std::sort(report.findings.begin(), report.findings.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.file, a.line) <
                         std::tie(b.file, b.line);
              });
    return report;
}

} // namespace

const char *
ruleId(Rule rule)
{
    switch (rule) {
      case Rule::R1CheckedStore: return "R1";
      case Rule::R2Determinism: return "R2";
      case Rule::R3LockOrder: return "R3";
      case Rule::R4ErrorFlow: return "R4";
      case Rule::R5RegistryMutation: return "R5";
      case Rule::R7DeadlockCycle: return "R7";
      case Rule::R8CrashWhileLocked: return "R8";
    }
    return "?";
}

const char *
ruleTitle(Rule rule)
{
    switch (rule) {
      case Rule::R1CheckedStore:
        return "checked-store discipline";
      case Rule::R2Determinism:
        return "determinism";
      case Rule::R3LockOrder:
        return "lock-rank lattice";
      case Rule::R4ErrorFlow:
        return "error flow";
      case Rule::R5RegistryMutation:
        return "registry mutation protocol";
      case Rule::R7DeadlockCycle:
        return "deadlock-potential lock cycle";
      case Rule::R8CrashWhileLocked:
        return "crash-capable operation under bare lock";
    }
    return "?";
}

int
Report::violations() const
{
    return static_cast<int>(
        std::count_if(findings.begin(), findings.end(),
                      [](const Finding &f) { return !f.allowed; }));
}

int
Report::allowed() const
{
    return static_cast<int>(findings.size()) - violations();
}

std::string
Report::text() const
{
    std::ostringstream out;
    for (const Finding &f : findings) {
        out << f.file << ":" << f.line << ": [" << ruleId(f.rule)
            << "] " << f.message;
        if (f.allowed) {
            out << " (allowed";
            if (!f.reason.empty())
                out << ": " << f.reason;
            out << ")";
        }
        out << "\n";
    }
    out << "riolint: " << violations() << " violation(s), "
        << allowed() << " allowed\n";
    return out.str();
}

std::string
Report::json() const
{
    std::map<std::string, Tally> byRule;
    std::map<std::string, Tally> byDir;
    for (const Finding &f : findings) {
        Tally &rule = byRule[ruleId(f.rule)];
        Tally &dir = byDir[dirOf(f.file)];
        if (f.allowed) {
            ++rule.allowed;
            ++dir.allowed;
        } else {
            ++rule.violations;
            ++dir.violations;
        }
    }

    auto tallies = [](const std::map<std::string, Tally> &map) {
        JsonObject out;
        for (const auto &[name, tally] : map) {
            out.put(name, JsonObject()
                              .put("violations", tally.violations)
                              .put("allowed", tally.allowed));
        }
        return out;
    };
    JsonArray list;
    for (const Finding &f : findings) {
        JsonObject finding;
        finding.put("rule", ruleId(f.rule))
            .put("file", f.file)
            .put("line", f.line)
            .put("allowed", f.allowed)
            .put("message", f.message);
        if (f.allowed)
            finding.put("reason", f.reason);
        list.push(finding);
    }
    return JsonObject()
               .put("violations", violations())
               .put("allowed", allowed())
               .put("rules", tallies(byRule))
               .put("directories", tallies(byDir))
               .put("findings", list)
               .str() +
           "\n";
}

std::vector<Finding>
lintSource(const std::string &path, const std::string &content)
{
    std::vector<SourceFile> files;
    files.push_back({path, tokenize(content)});
    return lintProgram(files).findings;
}

Report
lintFiles(const std::vector<std::string> &paths,
          const std::string &root)
{
    Report report;
    std::vector<SourceFile> files;
    for (const std::string &path : paths) {
        const std::filesystem::path full =
            std::filesystem::path(root) / path;
        std::ifstream in(full, std::ios::binary);
        if (!in) {
            Finding finding;
            finding.rule = Rule::R4ErrorFlow;
            finding.file = path;
            finding.message = "riolint: cannot open file";
            report.findings.push_back(std::move(finding));
            continue;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        files.push_back({path, tokenize(buf.str())});
    }
    Report program = lintProgram(files);
    report.findings.insert(report.findings.end(),
                           program.findings.begin(),
                           program.findings.end());
    report.lockDot = std::move(program.lockDot);
    report.lockJson = std::move(program.lockJson);
    return report;
}

Report
lintTree(const std::string &root)
{
    static const char *kRoots[] = {"src", "bench", "examples",
                                   "tools"};
    std::vector<std::string> paths;
    for (const char *sub : kRoots) {
        const std::filesystem::path base =
            std::filesystem::path(root) / sub;
        if (!std::filesystem::is_directory(base))
            continue;
        for (const auto &entry :
             std::filesystem::recursive_directory_iterator(base)) {
            if (!entry.is_regular_file())
                continue;
            const std::string ext =
                entry.path().extension().string();
            if (ext != ".cc" && ext != ".hh" && ext != ".cpp")
                continue;
            paths.push_back(
                std::filesystem::relative(entry.path(), root)
                    .generic_string());
        }
    }
    std::sort(paths.begin(), paths.end());
    return lintFiles(paths, root);
}

} // namespace riolint
