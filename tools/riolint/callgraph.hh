/**
 * @file
 * riolint program model: tokenizer, annotations, and the
 * whole-program call graph.
 *
 * The tokenizer and the `riolint:allow` annotation machinery used to
 * live inside lint.cc; they moved here when riolint grew from a
 * per-file pass into a whole-program analysis. On top of the token
 * stream this header builds:
 *
 *  - Function definitions with qualified names (class-body inline
 *    definitions, out-of-line `Class::name` definitions, constructors
 *    and destructors), each carrying its body token range;
 *  - Call sites inside every body, tagged with the receiver
 *    expression (`x.f()`, `p->f()`, `Class::f()`, bare `f()`);
 *  - A receiver-type map harvested from declarations (`Type &x`,
 *    `Type *x`, `std::unique_ptr<Type> x`), so `x->f()` resolves to
 *    `Type::f` when that definition exists;
 *  - Resolution from a call site to candidate definitions. Virtual
 *    dispatch through an interface falls back to the union of all
 *    definitions sharing the last name — a deliberate
 *    over-approximation that keeps the interprocedural rules sound.
 *
 * It is still a tokenizer, not a compiler: zero dependencies, tuned
 * to this codebase's idiom, and honest about its approximations.
 */

#ifndef RIOLINT_CALLGRAPH_HH
#define RIOLINT_CALLGRAPH_HH

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint.hh"

namespace riolint
{

struct Tok
{
    std::string text;
    int line = 0;
    char kind = 'p'; ///< 'i' ident, 'n' number, 's' string, 'p' punct.
};

struct Annotation
{
    Rule rule;
    std::string reason;
};

/** A `// riolint:rank(name, N)` lock-rank declaration. */
struct RankNote
{
    std::string lock;
    int rank = 0;
    int line = 0;
};

struct Scan
{
    std::vector<Tok> toks;
    /** Line -> allow annotations written on that line's comments. */
    std::map<int, std::vector<Annotation>> notes;
    /** Lock-rank declarations found in this file's comments. */
    std::vector<RankNote> ranks;
};

Scan tokenize(const std::string &src);

/** Index of the token matching the opener at @p open ('(', '{' or
 * '['), or toks.size() when unbalanced. Only the opener's own kind
 * is counted, so braces inside parens (default arguments) do not
 * disturb paren matching. */
std::size_t matchForward(const std::vector<Tok> &toks,
                         std::size_t open);

/**
 * Maps each code line to the annotations covering it. An annotation
 * covers the line it is written on; when that line carries no code,
 * it covers the next line that does (so a multi-line explanatory
 * comment above the offending statement works naturally).
 */
class AllowMap
{
  public:
    explicit AllowMap(const Scan &scan);

    /** Returns the annotation for (line, rule), or nullptr. */
    const Annotation *lookup(int line, Rule rule) const;

    /** The code line a comment written on @p line covers (the line
     * itself when it carries code, else the next code line; -1 when
     * no code follows). Shared with the rank-annotation binding. */
    int coveredLine(int line) const;

  private:
    std::map<int, std::vector<Annotation>> byLine_;
    std::set<int> codeLines_;
};

struct SourceFile
{
    std::string path;
    Scan scan;
};

struct CallSite
{
    std::string name;     ///< Last identifier of the callee.
    std::string receiver; ///< Var name, "this", class qualifier, "".
    char link = 'u';      ///< '.', '>' (->), ':' (::), 'u' bare.
    std::size_t tokIndex = 0;
    int line = 0;
};

struct Function
{
    std::string qualified; ///< E.g. "BufferCache::WriteWindow::bump".
    std::string name;      ///< Last component; "~X" for destructors.
    std::string className; ///< Innermost enclosing class, or "".
    std::size_t fileIndex = 0;
    int line = 0;
    std::size_t bodyBegin = 0; ///< Token index of the body '{'.
    std::size_t bodyEnd = 0;   ///< Token index of the matching '}'.
    std::vector<CallSite> calls;
};

class CallGraph
{
  public:
    explicit CallGraph(const std::vector<SourceFile> &files);

    const std::vector<Function> &functions() const { return fns_; }
    const SourceFile &file(std::size_t i) const { return files_[i]; }
    std::size_t fileCount() const { return files_.size(); }

    /** Candidate definitions for a call site, by index into
     * functions(). Empty when the callee is not defined in the
     * scanned program (library calls). */
    std::vector<std::size_t> resolve(const Function &caller,
                                     const CallSite &call) const;

    /** Static type of a receiver variable, or "" when unknown or
     * conflicting across the program. */
    std::string receiverType(const std::string &var) const;

  private:
    const std::vector<SourceFile> &files_;
    std::vector<Function> fns_;
    std::set<std::string> classes_;
    std::map<std::string, std::string> varTypes_;
    std::map<std::string, std::vector<std::size_t>> byLast_;
    std::map<std::string, std::size_t> byQualified_;

    void collectClasses(const SourceFile &file);
    void collectFunctions(std::size_t fileIndex);
    void collectVarTypes(const SourceFile &file);
    void collectCalls(Function &fn);
};

} // namespace riolint

#endif // RIOLINT_CALLGRAPH_HH
