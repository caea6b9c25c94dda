/**
 * @file
 * riolint — a static pass enforcing the paper's protection discipline.
 *
 * Rio's reliability argument rests on a single invariant: the only
 * way kernel code modifies the file cache or its registry is through
 * the checked store path (MemBus translate -> protection check ->
 * store). The simulator mirrors that argument in code, and riolint
 * is its static counterpart: a tokenizer-level pass over the tree
 * that flags every construct which could bypass the path, break
 * crash determinism, or drop an error on the floor. It is a
 * tokenizer, not a compiler: deliberately simple, zero dependencies,
 * and tuned to this codebase's idiom. Since the whole-program
 * rewrite it builds a call graph over the token stream (callgraph.hh)
 * and propagates lock sets through calls (lockgraph.hh).
 *
 * Rules:
 *  - R1 checked-store: PhysMem::raw(), memcpy/memmove/memset into
 *    memory images, and Disk::store_ are forbidden outside the
 *    whitelisted simulator internals.
 *  - R2 determinism: wall-clock and libc randomness (rand, time,
 *    std::random_device, system/steady clocks) are forbidden outside
 *    support/rng and sim/clock — results must be seed-reproducible.
 *  - R3 lock-rank lattice: every LockTable::add site declares its
 *    lock's rank with `// riolint:rank(name, N)`; acquiring a lock
 *    whose rank is <= the rank of any lock already held — directly
 *    or through any call chain — is a violation, as is an add site
 *    whose annotation is missing or drifts from the code.
 *  - R4 error-flow: status-returning functions must be [[nodiscard]]
 *    (Result already is, class-level) and statement-position calls
 *    to local status-returning functions must consume the result —
 *    including `this->`-qualified calls, the last call of a `a.b().c()`
 *    chain, and calls inside statement-level comma expressions.
 *  - R5 registry-mutation: Registry entry writes (writeEntryField*)
 *    are legal only inside the shadow-page protocol entry points in
 *    core/rio.cc.
 *  - R6 shadow-protocol: retired. The window order is in the types:
 *    os::WriteWindow (os/cacheguard.hh) is the data window, and
 *    RioSystem's EntryWindow and ClosedPage (core/rio.hh) are the
 *    registry window and the commit flip's proof that the data page
 *    closed. tests/typestate holds the compile-fail fixtures.
 *  - R7 deadlock-potential: a cycle in the acquired-while-held
 *    graph (built over the same interprocedural lock sets as R3)
 *    means two call paths can wait on each other.
 *  - R8 crash-under-lock: reaching a crash-capable operation (disk
 *    I/O, sim-time advance, fault hooks) while a lock is held by a
 *    bare acquire() — no RAII Guard, so a crash unwind skips the
 *    release — or a bare acquire with no release on any path.
 *  - R9 journal-transaction typestate: retired. The transaction
 *    order is asserted in Debug builds by Journal's txBegin,
 *    txAppend, txCommit and checkpoint (os/journal.cc).
 *
 * A violation is silenced by annotating the offending line (or the
 * line above it) with `// riolint:allow(R<n>) <reason>`. Suppressed
 * findings still appear in the report, marked allowed.
 */

#ifndef RIOLINT_LINT_HH
#define RIOLINT_LINT_HH

#include <string>
#include <vector>

namespace riolint
{

enum class Rule
{
    R1CheckedStore,
    R2Determinism,
    R3LockOrder,
    R4ErrorFlow,
    R5RegistryMutation,
    R7DeadlockCycle,
    R8CrashWhileLocked,
};

/** Short rule id, e.g. "R1". */
const char *ruleId(Rule rule);

/** One-line rule description for diagnostics. */
const char *ruleTitle(Rule rule);

struct Finding
{
    Rule rule;
    std::string file; ///< Path as given (relative to the lint root).
    int line = 0;
    std::string message;
    bool allowed = false; ///< Suppressed by a riolint:allow comment.
    std::string reason;   ///< Text following the allow annotation.
};

struct Report
{
    std::vector<Finding> findings;

    /** Lock graph as Graphviz DOT (nodes = locks with ranks, edges =
     * acquired-while-held, cycles highlighted). Filled by
     * lintFiles/lintTree. */
    std::string lockDot;
    /** Lock graph as JSON (locks, ranks, edges, cycles). */
    std::string lockJson;

    /** Unsuppressed violations — the CI-gating count. */
    int violations() const;
    /** Findings suppressed by riolint:allow annotations. */
    int allowed() const;

    /** Human-readable diagnostics, one line per finding. */
    std::string text() const;
    /** Machine-readable report with per-rule and per-directory
     * {violations, allowed} counts. */
    std::string json() const;
};

/** Lint one in-memory source as a single-file program (used by the
 * fixture tests; interprocedural rules see just this file). */
std::vector<Finding> lintSource(const std::string &path,
                                const std::string &content);

/** Lint files on disk as one program; paths are interpreted relative
 * to @p root and reported as given. */
Report lintFiles(const std::vector<std::string> &paths,
                 const std::string &root);

/** Recursively lint every .cc/.hh/.cpp under <root>/{src,bench,
 * examples,tools} as one whole program. */
Report lintTree(const std::string &root);

} // namespace riolint

#endif // RIOLINT_LINT_HH
