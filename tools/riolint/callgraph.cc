#include "callgraph.hh"

#include <algorithm>
#include <cctype>

namespace riolint
{

namespace
{

bool
parseRuleId(const std::string &id, Rule &out)
{
    static const std::pair<const char *, Rule> kIds[] = {
        {"R1", Rule::R1CheckedStore},
        {"R2", Rule::R2Determinism},
        {"R3", Rule::R3LockOrder},
        {"R4", Rule::R4ErrorFlow},
        {"R5", Rule::R5RegistryMutation},
        {"R7", Rule::R7DeadlockCycle},
        {"R8", Rule::R8CrashWhileLocked},
    };
    for (const auto &[name, rule] : kIds) {
        if (id == name) {
            out = rule;
            return true;
        }
    }
    return false;
}

std::string
trimmed(std::string text)
{
    while (!text.empty() &&
           std::isspace(static_cast<unsigned char>(text.front())))
        text.erase(text.begin());
    while (!text.empty() &&
           std::isspace(static_cast<unsigned char>(text.back())))
        text.pop_back();
    return text;
}

/** Pull riolint:allow(R<n>) <reason> annotations out of a comment. */
void
harvestAllows(const std::string &comment, int line, Scan &scan)
{
    static const std::string kTag = "riolint:allow(";
    std::size_t at = 0;
    while ((at = comment.find(kTag, at)) != std::string::npos) {
        const std::size_t idStart = at + kTag.size();
        const std::size_t close = comment.find(')', idStart);
        if (close == std::string::npos)
            return;
        Rule rule;
        if (parseRuleId(comment.substr(idStart, close - idStart),
                        rule)) {
            scan.notes[line].push_back(
                {rule, trimmed(comment.substr(close + 1))});
        }
        at = close;
    }
}

/** Pull riolint:rank(name, N) lock-rank declarations. */
void
harvestRanks(const std::string &comment, int line, Scan &scan)
{
    static const std::string kTag = "riolint:rank(";
    std::size_t at = 0;
    while ((at = comment.find(kTag, at)) != std::string::npos) {
        const std::size_t argStart = at + kTag.size();
        const std::size_t close = comment.find(')', argStart);
        if (close == std::string::npos)
            return;
        const std::string args =
            comment.substr(argStart, close - argStart);
        const std::size_t comma = args.find(',');
        if (comma != std::string::npos) {
            const std::string name = trimmed(args.substr(0, comma));
            const std::string num = trimmed(args.substr(comma + 1));
            if (!name.empty() && !num.empty() &&
                std::all_of(num.begin(), num.end(), [](char c) {
                    return std::isdigit(
                        static_cast<unsigned char>(c));
                })) {
                scan.ranks.push_back(
                    {name, std::stoi(num), line});
            }
        }
        at = close;
    }
}

void
harvestAnnotations(const std::string &comment, int line, Scan &scan)
{
    harvestAllows(comment, line, scan);
    harvestRanks(comment, line, scan);
}

const std::set<std::string> &
keywordSet()
{
    static const std::set<std::string> kKeywords = {
        "if",       "while",     "for",       "switch",
        "catch",    "return",    "sizeof",    "alignof",
        "new",      "delete",    "throw",     "static_assert",
        "decltype", "noexcept",  "alignas",   "requires",
        "co_return", "co_await", "co_yield",  "assert",
        "const",    "constexpr", "static",    "inline",
        "void",     "auto",      "bool",      "int",
        "char",     "unsigned",  "long",      "short",
        "double",   "float",     "this",      "operator",
        "else",     "do",        "case",      "default",
        "break",    "continue",  "goto",      "try",
        "using",    "namespace", "template",  "typename",
        "public",   "private",   "protected", "virtual",
        "explicit", "friend",    "typedef",   "enum",
        "class",    "struct",    "union",     "true",
        "false",    "nullptr",
    };
    return kKeywords;
}

} // namespace

Scan
tokenize(const std::string &src)
{
    Scan scan;
    int line = 1;
    std::size_t i = 0;
    const std::size_t n = src.size();

    auto peek = [&](std::size_t off) -> char {
        return i + off < n ? src[i + off] : '\0';
    };

    while (i < n) {
        const char c = src[i];
        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        if (c == '/' && peek(1) == '/') {
            const std::size_t end = src.find('\n', i);
            const std::size_t stop = end == std::string::npos ? n : end;
            harvestAnnotations(src.substr(i, stop - i), line, scan);
            i = stop;
            continue;
        }
        if (c == '/' && peek(1) == '*') {
            std::size_t j = i + 2;
            int commentLine = line;
            std::string text;
            while (j + 1 < n && !(src[j] == '*' && src[j + 1] == '/')) {
                if (src[j] == '\n') {
                    harvestAnnotations(text, commentLine, scan);
                    text.clear();
                    ++line;
                    commentLine = line;
                } else {
                    text.push_back(src[j]);
                }
                ++j;
            }
            harvestAnnotations(text, commentLine, scan);
            i = j + 2 < n ? j + 2 : n;
            continue;
        }
        if (c == '"' || c == '\'') {
            // Raw strings: R"delim( ... )delim"
            if (c == '"' && i > 0 && src[i - 1] == 'R' &&
                !scan.toks.empty() && scan.toks.back().text == "R") {
                const std::size_t open = src.find('(', i);
                std::string delim =
                    src.substr(i + 1, open - (i + 1));
                const std::string closer = ")" + delim + "\"";
                std::size_t end = src.find(closer, open);
                if (end == std::string::npos)
                    end = n;
                else
                    end += closer.size();
                line += static_cast<int>(
                    std::count(src.begin() + static_cast<long>(i),
                               src.begin() + static_cast<long>(end),
                               '\n'));
                scan.toks.back() = {"\"\"", line, 's'};
                i = end;
                continue;
            }
            std::size_t j = i + 1;
            while (j < n && src[j] != c) {
                if (src[j] == '\\')
                    ++j;
                if (src[j] == '\n')
                    ++line;
                ++j;
            }
            scan.toks.push_back({std::string(1, c) + "...", line, 's'});
            i = j + 1;
            continue;
        }
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            std::size_t j = i;
            while (j < n &&
                   (std::isalnum(static_cast<unsigned char>(src[j])) ||
                    src[j] == '_')) {
                ++j;
            }
            scan.toks.push_back({src.substr(i, j - i), line, 'i'});
            i = j;
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            std::size_t j = i;
            while (j < n &&
                   (std::isalnum(static_cast<unsigned char>(src[j])) ||
                    src[j] == '.' || src[j] == '\'')) {
                ++j;
            }
            scan.toks.push_back({src.substr(i, j - i), line, 'n'});
            i = j;
            continue;
        }
        // Multi-char punctuation the rules care about.
        static const char *kDigraphs[] = {"::", "->", "[[", "]]"};
        bool matched = false;
        for (const char *d : kDigraphs) {
            if (c == d[0] && peek(1) == d[1]) {
                scan.toks.push_back({d, line, 'p'});
                i += 2;
                matched = true;
                break;
            }
        }
        if (matched)
            continue;
        scan.toks.push_back({std::string(1, c), line, 'p'});
        ++i;
    }
    return scan;
}

// ---------------------------------------------------------------------
// AllowMap
// ---------------------------------------------------------------------

AllowMap::AllowMap(const Scan &scan)
{
    for (const Tok &tok : scan.toks)
        codeLines_.insert(tok.line);
    for (const auto &[line, notes] : scan.notes) {
        const int covered = coveredLine(line);
        if (covered < 0)
            continue;
        for (const Annotation &note : notes)
            byLine_[covered].push_back(note);
    }
}

int
AllowMap::coveredLine(int line) const
{
    if (codeLines_.count(line))
        return line;
    auto next = codeLines_.upper_bound(line);
    return next == codeLines_.end() ? -1 : *next;
}

const Annotation *
AllowMap::lookup(int line, Rule rule) const
{
    auto it = byLine_.find(line);
    if (it == byLine_.end())
        return nullptr;
    for (const Annotation &note : it->second) {
        if (note.rule == rule)
            return &note;
    }
    return nullptr;
}

// ---------------------------------------------------------------------
// CallGraph
// ---------------------------------------------------------------------

CallGraph::CallGraph(const std::vector<SourceFile> &files)
    : files_(files)
{
    for (const SourceFile &file : files_)
        collectClasses(file);
    for (std::size_t i = 0; i < files_.size(); ++i)
        collectFunctions(i);
    for (const SourceFile &file : files_)
        collectVarTypes(file);
    for (std::size_t f = 0; f < fns_.size(); ++f) {
        collectCalls(fns_[f]);
        byLast_[fns_[f].name].push_back(f);
        byQualified_.emplace(fns_[f].qualified, f);
    }
}

void
CallGraph::collectClasses(const SourceFile &file)
{
    const auto &toks = file.scan.toks;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].kind != 'i' ||
            (toks[i].text != "class" && toks[i].text != "struct"))
            continue;
        std::size_t j = i + 1;
        while (j < toks.size() && toks[j].text == "[[") {
            while (j < toks.size() && toks[j].text != "]]")
                ++j;
            ++j;
        }
        if (j < toks.size() && toks[j].kind == 'i')
            classes_.insert(toks[j].text);
    }
}

std::size_t
matchForward(const std::vector<Tok> &toks, std::size_t open)
{
    const std::string opener = toks[open].text;
    const std::string closer =
        opener == "(" ? ")" : (opener == "[" ? "]" : "}");
    int bal = 0;
    for (std::size_t j = open; j < toks.size(); ++j) {
        if (toks[j].text == opener)
            ++bal;
        else if (toks[j].text == closer && --bal == 0)
            return j;
    }
    return toks.size();
}

void
CallGraph::collectFunctions(std::size_t fileIndex)
{
    const auto &toks = files_[fileIndex].scan.toks;
    const auto &keywords = keywordSet();

    struct ClassCtx
    {
        std::string name;
        int depth;
    };
    std::vector<ClassCtx> classStack;
    std::string pendingClass;
    int depth = 0;

    std::size_t i = 0;
    while (i < toks.size()) {
        const Tok &t = toks[i];
        if (t.kind == 'i' &&
            (t.text == "class" || t.text == "struct")) {
            std::size_t j = i + 1;
            while (j < toks.size() && toks[j].text == "[[") {
                while (j < toks.size() && toks[j].text != "]]")
                    ++j;
                ++j;
            }
            if (j < toks.size() && toks[j].kind == 'i') {
                const std::string name = toks[j].text;
                std::size_t k = j + 1;
                if (k < toks.size() && toks[k].text == "final")
                    ++k;
                if (k < toks.size() && toks[k].text == ":") {
                    while (k < toks.size() && toks[k].text != "{" &&
                           toks[k].text != ";")
                        ++k;
                }
                if (k < toks.size() && toks[k].text == "{")
                    pendingClass = name;
            }
            ++i;
            continue;
        }
        if (t.text == "{") {
            ++depth;
            if (!pendingClass.empty()) {
                classStack.push_back({pendingClass, depth});
                pendingClass.clear();
            }
            ++i;
            continue;
        }
        if (t.text == "}") {
            if (!classStack.empty() &&
                classStack.back().depth == depth)
                classStack.pop_back();
            --depth;
            ++i;
            continue;
        }

        if (t.kind != 'i' || i + 1 >= toks.size() ||
            toks[i + 1].text != "(" || keywords.count(t.text)) {
            ++i;
            continue;
        }

        // Candidate definition header: parse the name chain
        // backwards (Class::name, ~dtor) and check whether a body
        // follows the parameter list.
        std::vector<std::string> quals;
        std::string fname = t.text;
        std::size_t head = i;
        if (head > 0 && toks[head - 1].text == "~") {
            fname = "~" + fname;
            --head;
        }
        while (head >= 2 && toks[head - 1].text == "::" &&
               toks[head - 2].kind == 'i') {
            quals.insert(quals.begin(), toks[head - 2].text);
            head -= 2;
        }

        const std::size_t close = matchForward(toks, i + 1);
        std::size_t j = close + 1;
        bool isDef = false;
        while (j < toks.size()) {
            const std::string &w = toks[j].text;
            if (w == "const" || w == "override" || w == "final" ||
                w == "mutable" || w == "&") {
                ++j;
                continue;
            }
            if (w == "noexcept") {
                ++j;
                if (j < toks.size() && toks[j].text == "(")
                    j = matchForward(toks, j) + 1;
                continue;
            }
            if (w == "->") {
                // Trailing return type.
                ++j;
                while (j < toks.size() && toks[j].text != "{" &&
                       toks[j].text != ";" && toks[j].text != "=")
                    ++j;
                continue;
            }
            if (w == ":") {
                // Constructor initializer list: member(args) or
                // member{args} groups separated by commas.
                ++j;
                bool ok = true;
                while (j < toks.size()) {
                    while (j < toks.size() &&
                           (toks[j].kind == 'i' ||
                            toks[j].text == "::" ||
                            toks[j].text == "<" ||
                            toks[j].text == ">"))
                        ++j;
                    if (j >= toks.size() ||
                        (toks[j].text != "(" &&
                         toks[j].text != "{")) {
                        ok = false;
                        break;
                    }
                    j = matchForward(toks, j) + 1;
                    if (j < toks.size() && toks[j].text == ",") {
                        ++j;
                        continue;
                    }
                    break;
                }
                if (!ok || j >= toks.size() || toks[j].text != "{")
                    j = toks.size();
                continue;
            }
            if (w == "{")
                isDef = true;
            break;
        }

        if (!isDef || j >= toks.size()) {
            ++i;
            continue;
        }

        Function fn;
        fn.name = fname;
        std::vector<std::string> path;
        if (!quals.empty()) {
            path = quals;
            for (const std::string &q : quals)
                classes_.insert(q);
        } else {
            for (const ClassCtx &c : classStack)
                path.push_back(c.name);
        }
        fn.className = path.empty() ? "" : path.back();
        path.push_back(fn.name);
        std::string qualified;
        for (const std::string &part : path) {
            if (!qualified.empty())
                qualified += "::";
            qualified += part;
        }
        fn.qualified = std::move(qualified);
        fn.fileIndex = fileIndex;
        fn.line = t.line;
        fn.bodyBegin = j;
        fn.bodyEnd = matchForward(toks, j);
        const std::size_t resume = fn.bodyEnd;
        fns_.push_back(std::move(fn));
        i = resume >= toks.size() ? toks.size() : resume + 1;
    }
}

void
CallGraph::collectVarTypes(const SourceFile &file)
{
    const auto &toks = file.scan.toks;
    const auto &keywords = keywordSet();

    auto skipAngles = [&](std::size_t open,
                          std::string *lastIdent) -> std::size_t {
        // Bounded: '<' may be a comparison, not a template list.
        int d = 0;
        const std::size_t limit =
            std::min(toks.size(), open + 40);
        for (std::size_t j = open; j < limit; ++j) {
            if (toks[j].text == "<") {
                ++d;
            } else if (toks[j].text == ">") {
                if (--d == 0)
                    return j + 1;
            } else if (toks[j].kind == 'i' && lastIdent) {
                *lastIdent = toks[j].text;
            } else if (toks[j].text == ";" || toks[j].text == "{") {
                break;
            }
        }
        return toks.size();
    };

    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        const Tok &t = toks[i];
        if (t.kind != 'i')
            continue;
        std::string cls;
        std::size_t j = 0;
        if ((t.text == "unique_ptr" || t.text == "shared_ptr") &&
            toks[i + 1].text == "<") {
            std::string pointee;
            j = skipAngles(i + 1, &pointee);
            cls = pointee;
        } else if (classes_.count(t.text)) {
            cls = t.text;
            j = i + 1;
            if (j < toks.size() && toks[j].text == "<")
                j = skipAngles(j, nullptr);
        } else {
            continue;
        }
        if (cls.empty() || j >= toks.size())
            continue;
        while (j < toks.size() &&
               (toks[j].text == "&" || toks[j].text == "*"))
            ++j;
        if (j + 1 >= toks.size() || toks[j].kind != 'i' ||
            keywords.count(toks[j].text))
            continue;
        const std::string &nxt = toks[j + 1].text;
        if (nxt != ";" && nxt != "=" && nxt != "," && nxt != ")" &&
            nxt != "{" && nxt != "(")
            continue;
        const std::string &var = toks[j].text;
        auto it = varTypes_.find(var);
        if (it == varTypes_.end())
            varTypes_.emplace(var, cls);
        else if (it->second != cls)
            it->second.clear(); // Conflicting declarations: unknown.
    }
}

void
CallGraph::collectCalls(Function &fn)
{
    const auto &toks = files_[fn.fileIndex].scan.toks;
    static const std::set<std::string> kCallAfterKeyword = {
        "return", "throw", "else", "do", "co_return",
    };
    const auto &keywords = keywordSet();

    for (std::size_t k = fn.bodyBegin + 1;
         k + 1 < toks.size() && k < fn.bodyEnd; ++k) {
        const Tok &t = toks[k];
        if (t.kind != 'i' || toks[k + 1].text != "(" ||
            keywords.count(t.text))
            continue;
        const Tok &prev = toks[k - 1];
        CallSite cs;
        cs.name = t.text;
        cs.tokIndex = k;
        cs.line = t.line;
        if (prev.text == "." || prev.text == "->") {
            cs.link = prev.text == "." ? '.' : '>';
            if (k >= 2 && toks[k - 2].kind == 'i')
                cs.receiver = toks[k - 2].text;
            else
                cs.receiver = "<expr>";
        } else if (prev.text == "::") {
            if (k < 2 || toks[k - 2].kind != 'i')
                continue;
            cs.link = ':';
            cs.receiver = toks[k - 2].text;
        } else if (prev.text == "~") {
            continue; // Explicit destructor call.
        } else if (prev.kind == 'i') {
            // `Type name(...)` is a declaration, not a call; only
            // keyword-led positions (`return f()`) are calls.
            if (!kCallAfterKeyword.count(prev.text))
                continue;
            cs.link = 'u';
        } else {
            cs.link = 'u';
        }
        fn.calls.push_back(std::move(cs));
    }
}

std::string
CallGraph::receiverType(const std::string &var) const
{
    auto it = varTypes_.find(var);
    return it == varTypes_.end() ? std::string() : it->second;
}

std::vector<std::size_t>
CallGraph::resolve(const Function &caller, const CallSite &call) const
{
    auto it = byLast_.find(call.name);
    if (it == byLast_.end())
        return {};
    const std::vector<std::size_t> &cands = it->second;

    auto inClass = [&](const std::string &cls) {
        std::vector<std::size_t> out;
        for (std::size_t f : cands) {
            if (fns_[f].className == cls)
                out.push_back(f);
        }
        return out;
    };

    if (call.link == ':') {
        // Explicit qualification: only the named class counts
        // (std:: and friends resolve to nothing, correctly).
        return inClass(call.receiver);
    }
    if (call.link == '.' || call.link == '>') {
        const std::string cls = call.receiver == "this"
                                    ? caller.className
                                    : receiverType(call.receiver);
        if (!cls.empty()) {
            auto exact = inClass(cls);
            if (!exact.empty())
                return exact;
        }
        // Interface receiver or unknown type: union over every
        // definition with this name (virtual-dispatch sound).
        return cands;
    }
    // Bare call: prefer the caller's own class, else the union.
    auto own = inClass(caller.className);
    if (!own.empty())
        return own;
    return cands;
}

} // namespace riolint
