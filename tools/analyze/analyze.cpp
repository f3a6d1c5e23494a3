#include "tools/analyze/analyze.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <unordered_set>

#include "tools/analyze/include_graph.h"
#include "tools/analyze/lexer.h"
#include "util/error.h"

namespace dtrank::analyze
{

namespace
{

/** True when `path` (repo-relative, '/'-separated) is under `dir`. */
bool
underDir(const std::string &path, std::string_view dir)
{
    return path.size() > dir.size() &&
           path.compare(0, dir.size(), dir) == 0 &&
           path[dir.size()] == '/';
}

bool
isHeaderPath(const std::string &path)
{
    return path.ends_with(".h") || path.ends_with(".hpp");
}

bool
startsWith(const std::string &text, std::string_view prefix)
{
    return text.compare(0, prefix.size(), prefix) == 0;
}

/** `prefix + quoted + suffix` with the middle part single-quoted. */
std::string
quotedMessage(std::string_view prefix, std::string_view quoted,
              std::string_view suffix)
{
    std::string message(prefix);
    message.append("'").append(quoted).append("' ").append(suffix);
    return message;
}

/**
 * One source line as the line rules see it: the code tokens starting
 * on it, and the comment text attached to it (the channel suppression
 * directives live in). Multi-line block comments contribute each of
 * their text lines to the corresponding source line, exactly like the
 * old line lexer did.
 */
struct LineView
{
    std::vector<const Token *> code;
    std::string comment;
};

std::vector<LineView>
buildLineViews(const std::vector<Token> &tokens, std::size_t lines)
{
    std::vector<LineView> views(std::max<std::size_t>(lines, 1));
    for (const Token &token : tokens) {
        if (token.kind == TokenKind::Comment) {
            std::size_t line = token.line;
            std::size_t start = 0;
            while (true) {
                const std::size_t newline =
                    token.text.find('\n', start);
                const std::size_t end = newline == std::string::npos
                                            ? token.text.size()
                                            : newline;
                if (line - 1 < views.size())
                    views[line - 1].comment.append(token.text, start,
                                                   end - start);
                if (newline == std::string::npos)
                    break;
                start = newline + 1;
                ++line;
            }
            continue;
        }
        if (token.line - 1 < views.size())
            views[token.line - 1].code.push_back(&token);
    }
    return views;
}

/** True when the comment carries a suppression that covers `rule`. */
bool
suppresses(const std::string &comment, const std::string &rule)
{
    static constexpr std::string_view kDirectives[] = {
        "dtrank-analyze-ignore",
        "dtrank-lint-ignore", // historical spelling, still honored
    };
    for (const std::string_view directive : kDirectives) {
        std::size_t pos = 0;
        while ((pos = comment.find(directive, pos)) !=
               std::string::npos) {
            const std::size_t after = pos + directive.size();
            if (after >= comment.size() || comment[after] != '(')
                return true; // bare directive: ignore every rule
            const std::size_t close = comment.find(')', after);
            if (close == std::string::npos)
                return true; // malformed; err toward the author
            const std::string listed =
                comment.substr(after + 1, close - after - 1);
            if (listed == rule)
                return true;
            pos = close;
        }
    }
    return false;
}

/** Suppression check for a finding on 1-based line `line`: its own
 *  comment, or a comment-only line directly above. */
bool
suppressedAt(const std::vector<LineView> &views, std::size_t line,
             const std::string &rule)
{
    const std::size_t index = line - 1;
    if (index >= views.size())
        return false;
    if (suppresses(views[index].comment, rule))
        return true;
    if (index > 0 && views[index - 1].code.empty() &&
        suppresses(views[index - 1].comment, rule))
        return true;
    return false;
}

// --------------------------------------------------------------------
// Ported line rules. Each matcher sees one LineView and returns a
// message ("" = clean); at most one finding per rule per line, the
// same contract the regex linter had.

const Token *
tokenAfter(const LineView &line, std::size_t index)
{
    return index + 1 < line.code.size() ? line.code[index + 1]
                                        : nullptr;
}

std::string
matchRawRand(const LineView &line)
{
    static constexpr std::string_view kEngines[] = {
        "srand", "random_device", "mt19937", "mt19937_64",
        "minstd_rand", "minstd_rand0", "default_random_engine",
        "ranlux24", "ranlux48", "knuth_b",
    };
    for (const std::string_view engine : kEngines) {
        for (const Token *token : line.code) {
            if (token->kind == TokenKind::Identifier &&
                token->text == engine)
                return quotedMessage(
                    "raw random source ", engine,
                    "bypasses util::Rng; all randomness must flow "
                    "through an explicitly seeded util::Rng");
        }
    }
    for (std::size_t i = 0; i < line.code.size(); ++i) {
        if (!isIdent(*line.code[i], "rand"))
            continue;
        const Token *next = tokenAfter(line, i);
        if (next != nullptr && isPunct(*next, "("))
            return "rand() is non-deterministic across platforms; use "
                   "util::Rng with an explicit seed";
    }
    for (std::size_t i = 0; i < line.code.size(); ++i) {
        if (!isIdent(*line.code[i], "time"))
            continue;
        const Token *paren = tokenAfter(line, i);
        if (paren == nullptr || !isPunct(*paren, "("))
            continue;
        const Token *arg = tokenAfter(line, i + 1);
        if (arg == nullptr || arg->text.empty())
            continue;
        if ((arg->kind == TokenKind::Identifier ||
             arg->kind == TokenKind::Number) &&
            (arg->text[0] == 'n' || arg->text[0] == 'N' ||
             arg->text[0] == '0'))
            return "wall-clock seeding breaks reproducibility; derive "
                   "seeds from util::Rng streams";
    }
    return "";
}

/** Index of the first `std::<name>` sequence with name in `names`,
 *  or npos; `*matched` receives the name. */
std::size_t
findStdQualified(const LineView &line,
                 const std::vector<std::string_view> &names,
                 std::string_view *matched)
{
    for (std::size_t i = 0; i + 2 < line.code.size(); ++i) {
        if (!isIdent(*line.code[i], "std") ||
            !isPunct(*line.code[i + 1], "::") ||
            line.code[i + 2]->kind != TokenKind::Identifier)
            continue;
        for (const std::string_view name : names) {
            if (line.code[i + 2]->text == name) {
                *matched = name;
                return i;
            }
        }
    }
    return std::string::npos;
}

std::string
matchCoutInSrc(const LineView &line)
{
    std::string_view matched;
    if (findStdQualified(line, {"cout"}, &matched) !=
        std::string::npos)
        return "library code must not write to stdout; use "
               "util::logging (inform/warn/debug) or take an ostream";
    static constexpr std::string_view kWriters[] = {
        "printf", "fprintf", "puts", "putchar",
    };
    for (const std::string_view writer : kWriters) {
        for (const Token *token : line.code) {
            if (token->kind == TokenKind::Identifier &&
                token->text == writer)
                return quotedMessage(
                    "", writer,
                    "in library code; use util::logging or an ostream "
                    "parameter");
        }
    }
    return "";
}

std::string
matchFloatKernel(const LineView &line)
{
    for (const Token *token : line.code) {
        if (isIdent(*token, "float"))
            return "numeric kernels are double-precision only: float "
                   "changes rounding and breaks bit-identical "
                   "reproduction of the paper tables";
    }
    return "";
}

std::string
matchRawIntrinsics(const LineView &line)
{
    for (const Token *token : line.code) {
        // Covers the header family: immintrin, xmmintrin, emmintrin...
        if ((token->kind == TokenKind::HeaderName ||
             token->kind == TokenKind::Identifier) &&
            token->text.find("mmintrin") != std::string::npos)
            return "vendor intrinsic headers may only be included "
                   "under src/simd/; call the runtime-dispatched "
                   "simd:: kernels instead";
    }
    for (const Token *token : line.code) {
        if (token->kind != TokenKind::Identifier)
            continue;
        const std::string &ident = token->text;
        const bool vector_type = startsWith(ident, "__m128") ||
                                 startsWith(ident, "__m256") ||
                                 startsWith(ident, "__m512");
        if (vector_type || startsWith(ident, "_mm"))
            return quotedMessage(
                "raw SIMD intrinsic ", ident,
                "outside src/simd/; hand-written vector code bypasses "
                "the dispatch layer's bit-identical canonical "
                "reductions — use the simd:: kernel API");
    }
    return "";
}

std::string
matchNakedNew(const LineView &line)
{
    for (const Token *token : line.code) {
        if (isIdent(*token, "new"))
            return "naked 'new' in library code; use containers, "
                   "std::make_unique or std::make_shared";
    }
    for (std::size_t i = 0; i < line.code.size(); ++i) {
        if (!isIdent(*line.code[i], "delete"))
            continue;
        if (i > 0 && isPunct(*line.code[i - 1], "="))
            continue; // `= delete` special member functions
        return "naked 'delete' in library code; ownership must be "
               "RAII-managed";
    }
    return "";
}

std::string
matchStdMutex(const LineView &line)
{
    static const std::vector<std::string_view> kPrimitives = {
        "condition_variable_any", "condition_variable",
        "recursive_timed_mutex",  "recursive_mutex",
        "shared_timed_mutex",     "shared_mutex",
        "timed_mutex",            "mutex",
        "lock_guard",             "unique_lock",
        "scoped_lock",            "shared_lock",
    };
    std::string_view matched;
    if (findStdQualified(line, kPrimitives, &matched) !=
        std::string::npos) {
        std::string qualified = "std::";
        qualified.append(matched);
        return quotedMessage(
            "", qualified,
            "bypasses the thread-safety-annotated wrappers; use "
            "util::Mutex / util::LockGuard / util::CondVar "
            "(util/mutex.h)");
    }
    return "";
}

std::string
matchRawClock(const LineView &line)
{
    static constexpr std::string_view kClocks[] = {
        "steady_clock", "high_resolution_clock",
    };
    for (const std::string_view clock : kClocks) {
        for (const Token *token : line.code) {
            if (token->kind == TokenKind::Identifier &&
                token->text == clock)
                return quotedMessage(
                    "raw monotonic clock ", clock,
                    "outside src/obs/ and bench/; read time through "
                    "the clock shim (util/clock.h: monotonicNow, "
                    "monotonicNanos) so traces, metrics and bench "
                    "timings share one epoch");
        }
    }
    return "";
}

bool
appliesEverywhere(const std::string &path)
{
    return path != "src/util/rng.h";
}

bool
appliesSrcOnly(const std::string &path)
{
    return underDir(path, "src") && path != "src/util/logging.cpp";
}

bool
appliesKernels(const std::string &path)
{
    return underDir(path, "src/linalg") ||
           underDir(path, "src/stats") || underDir(path, "src/ml") ||
           underDir(path, "src/simd");
}

bool
appliesOutsideSimd(const std::string &path)
{
    return !underDir(path, "src/simd");
}

bool
appliesSrc(const std::string &path)
{
    return underDir(path, "src");
}

bool
appliesOutsideMutexWrapper(const std::string &path)
{
    return path != "src/util/mutex.h";
}

bool
appliesOutsideObsAndBench(const std::string &path)
{
    // util/clock.h is the shim itself.
    return !underDir(path, "src/obs") && !underDir(path, "bench") &&
           path != "src/util/clock.h";
}

struct LineRule
{
    std::string id;
    bool (*applies)(const std::string &path);
    std::string (*match)(const LineView &line);
};

const std::vector<LineRule> &
lineRules()
{
    static const std::vector<LineRule> kRules = {
        {"no-raw-rand", appliesEverywhere, matchRawRand},
        {"no-cout-in-src", appliesSrcOnly, matchCoutInSrc},
        {"no-float-kernel", appliesKernels, matchFloatKernel},
        {"no-naked-new", appliesSrc, matchNakedNew},
        {"no-std-mutex", appliesOutsideMutexWrapper, matchStdMutex},
        {"no-raw-intrinsics", appliesOutsideSimd, matchRawIntrinsics},
        {"no-raw-clock", appliesOutsideObsAndBench, matchRawClock},
    };
    return kRules;
}

// --------------------------------------------------------------------
// Determinism-contract rules. These walk the whole token stream (a
// loop body or a declaration does not respect line boundaries), with
// comments and preprocessor material filtered out up front.

std::vector<const Token *>
codeTokens(const std::vector<Token> &tokens)
{
    std::vector<const Token *> code;
    for (const Token &token : tokens)
        if (token.kind != TokenKind::Comment && !token.preprocessor)
            code.push_back(&token);
    return code;
}

/** Names of scalars declared `double <name>` anywhere in the file,
 *  including the later declarators of `double a = 0.0, b = 0.0;`. */
std::unordered_set<std::string>
doubleScalars(const std::vector<const Token *> &code)
{
    std::unordered_set<std::string> names;
    for (std::size_t i = 0; i + 1 < code.size(); ++i) {
        if (!isIdent(*code[i], "double") ||
            code[i + 1]->kind != TokenKind::Identifier)
            continue;
        names.insert(code[i + 1]->text);
        // Follow `, name` declarators at the same nesting depth; the
        // name must be followed by `,`/`;`/`=`/`[`/`{` so that
        // commas in template or call argument lists never match.
        int depth = 0;
        for (std::size_t j = i + 2; j < code.size(); ++j) {
            const Token &token = *code[j];
            if (token.kind != TokenKind::Punct)
                continue;
            if (token.text == "(" || token.text == "[" ||
                token.text == "{") {
                ++depth;
            } else if (token.text == ")" || token.text == "]" ||
                       token.text == "}") {
                if (depth == 0)
                    break;
                --depth;
            } else if (token.text == ";" && depth == 0) {
                break;
            } else if (token.text == "," && depth == 0 &&
                       j + 2 < code.size() &&
                       code[j + 1]->kind == TokenKind::Identifier &&
                       code[j + 2]->kind == TokenKind::Punct) {
                const std::string &next = code[j + 2]->text;
                if (next == "," || next == ";" || next == "=" ||
                    next == "[" || next == "{")
                    names.insert(code[j + 1]->text);
            }
        }
    }
    return names;
}

/**
 * no-fp-accumulate: `x += ...` / `x -= ...` on a double scalar inside
 * a for/while/do body. Scalar reduction order is exactly what the
 * KernelTable pins down; ad-hoc accumulation loops re-introduce
 * tier-dependent rounding. Indexed stores (`a[i] += ...`) are
 * element-wise, not reductions, and do not match (the token before
 * `+=` is `]`, not the declared scalar).
 */
void
checkFpAccumulate(const std::string &path,
                  const std::vector<const Token *> &code,
                  std::vector<Finding> &findings)
{
    const std::unordered_set<std::string> doubles =
        doubleScalars(code);
    if (doubles.empty())
        return;

    // Loop-body tracking: brace-delimited bodies as a stack of brace
    // depths, plus single-statement bodies (`for (...) x += v;`).
    int paren_depth = 0;
    int brace_depth = 0;
    std::vector<int> loop_braces;
    int inline_loops = 0; // single-statement bodies awaiting `;`
    enum class Await
    {
        None,
        Paren, // saw for/while, waiting for the control clause
        Body,  // control clause closed, next token starts the body
    };
    Await await = Await::None;
    int await_paren_depth = 0;

    for (std::size_t i = 0; i < code.size(); ++i) {
        const Token &token = *code[i];
        if (await == Await::Body) {
            await = Await::None;
            if (isPunct(token, "{")) {
                loop_braces.push_back(brace_depth);
            } else {
                ++inline_loops;
            }
        }
        if (token.kind == TokenKind::Identifier) {
            if (token.text == "for" || token.text == "while") {
                await = Await::Paren;
                await_paren_depth = paren_depth;
            } else if (token.text == "do") {
                await = Await::Body;
                continue;
            }
        } else if (token.kind == TokenKind::Punct) {
            if (token.text == "(") {
                ++paren_depth;
            } else if (token.text == ")") {
                --paren_depth;
                if (await == Await::Paren &&
                    paren_depth == await_paren_depth)
                    await = Await::Body;
            } else if (token.text == "{") {
                ++brace_depth;
            } else if (token.text == "}") {
                --brace_depth;
                while (!loop_braces.empty() &&
                       loop_braces.back() >= brace_depth)
                    loop_braces.pop_back();
            } else if (token.text == ";" && paren_depth == 0) {
                inline_loops = 0;
            }
        }

        const bool in_loop = !loop_braces.empty() || inline_loops > 0;
        if (!in_loop || token.kind != TokenKind::Identifier)
            continue;
        if (i + 1 >= code.size() ||
            code[i + 1]->kind != TokenKind::Punct)
            continue;
        const std::string &op = code[i + 1]->text;
        if (op != "+=" && op != "-=")
            continue;
        if (doubles.count(token.text) == 0)
            continue;
        findings.push_back(
            {"no-fp-accumulate", path, token.line,
             quotedMessage(
                 "scalar floating-point accumulation ", token.text,
                 "inside a loop; its rounding order changes with "
                 "vectorization and threading — route reductions "
                 "through the simd:: kernel table")});
    }
}

/**
 * no-unordered-iteration: range-for over, or begin()/cbegin() on, a
 * variable declared as an unordered associative container. Bucket
 * order varies with libstdc++ version, hash seed and insertion
 * history, so anything order-sensitive downstream drifts.
 */
void
checkUnorderedIteration(const std::string &path,
                        const std::vector<const Token *> &code,
                        std::vector<Finding> &findings)
{
    static const std::unordered_set<std::string> kUnorderedTypes = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset",
    };

    // Variables declared with an unordered type: skip the template
    // argument list, then take the next identifier as the name.
    std::unordered_set<std::string> variables;
    for (std::size_t i = 0; i < code.size(); ++i) {
        if (code[i]->kind != TokenKind::Identifier ||
            kUnorderedTypes.count(code[i]->text) == 0)
            continue;
        std::size_t j = i + 1;
        if (j < code.size() && isPunct(*code[j], "<")) {
            int depth = 0;
            for (; j < code.size(); ++j) {
                if (code[j]->kind != TokenKind::Punct)
                    continue;
                if (code[j]->text == "<")
                    ++depth;
                else if (code[j]->text == ">")
                    --depth;
                else if (code[j]->text == ">>")
                    depth -= 2;
                if (depth <= 0) {
                    ++j;
                    break;
                }
            }
        }
        // Reference/pointer declarators and trailing cv-qualifiers
        // sit between the type and the name: `unordered_map<K, V>
        // &m`, `const unordered_set<T> *s`.
        while (j < code.size() &&
               (isPunct(*code[j], "&") || isPunct(*code[j], "&&") ||
                isPunct(*code[j], "*") ||
                isIdent(*code[j], "const")))
            ++j;
        if (j < code.size() && code[j]->kind == TokenKind::Identifier)
            variables.insert(code[j]->text);
    }
    if (variables.empty())
        return;

    for (std::size_t i = 0; i < code.size(); ++i) {
        // `x.begin()` / `x.cbegin()` on an unordered variable.
        if (code[i]->kind == TokenKind::Identifier &&
            variables.count(code[i]->text) != 0 &&
            i + 2 < code.size() && isPunct(*code[i + 1], ".") &&
            (isIdent(*code[i + 2], "begin") ||
             isIdent(*code[i + 2], "cbegin"))) {
            findings.push_back(
                {"no-unordered-iteration", path, code[i]->line,
                 quotedMessage(
                     "iteration over unordered container ",
                     code[i]->text,
                     "is order-nondeterministic; iterate a sorted "
                     "copy or use an ordered container")});
            continue;
        }
        // Range-for whose range expression mentions such a variable.
        if (!isIdent(*code[i], "for") || i + 1 >= code.size() ||
            !isPunct(*code[i + 1], "("))
            continue;
        int depth = 0;
        std::size_t colon = 0;
        std::size_t close = 0;
        for (std::size_t j = i + 1; j < code.size(); ++j) {
            if (code[j]->kind != TokenKind::Punct)
                continue;
            if (code[j]->text == "(") {
                ++depth;
            } else if (code[j]->text == ")") {
                if (--depth == 0) {
                    close = j;
                    break;
                }
            } else if (code[j]->text == ":" && depth == 1 &&
                       colon == 0) {
                colon = j;
            }
        }
        if (colon == 0 || close == 0)
            continue;
        for (std::size_t j = colon + 1; j < close; ++j) {
            if (code[j]->kind == TokenKind::Identifier &&
                variables.count(code[j]->text) != 0) {
                findings.push_back(
                    {"no-unordered-iteration", path, code[i]->line,
                     quotedMessage(
                         "range-for over unordered container ",
                         code[j]->text,
                         "is order-nondeterministic; iterate a "
                         "sorted copy or use an ordered container")});
                break;
            }
        }
    }
}

/** Identifiers that mark a declaration as immutable, synchronized, or
 *  not state at all. */
bool
isStaticGuard(const std::string &text)
{
    static const std::unordered_set<std::string> kGuards = {
        "const",       "constexpr", "constinit", "thread_local",
        "atomic",      "once_flag", "Mutex",     "CondVar",
        "DTRANK_GUARDED_BY",        "using",     "typedef",
        "struct",      "class",     "enum",      "union",
        "extern",      "template",  "friend",    "concept",
        "static_assert",            "requires",  "operator",
        "namespace",
    };
    return kGuards.count(text) != 0;
}

/**
 * no-unguarded-static: mutable static or file-scope state with no
 * const/constexpr/constinit, no thread_local, no std::atomic, no
 * util::Mutex/CondVar being declared, and no DTRANK_GUARDED_BY
 * annotation. Two independent passes:
 *   (a) every `static` declaration, wherever it sits (file scope,
 *       function-local, class member) — if `(` appears before
 *       `;`/`{`/`=` it declares a function and is exempt;
 *   (b) namespace-scope declarations without `static` (anonymous
 *       namespaces make the keyword optional): statements whose every
 *       enclosing brace belongs to a namespace, skipping function
 *       bodies wholesale (pass (a) still sees inside them).
 */
void
checkUnguardedStatic(const std::string &path,
                     const std::vector<const Token *> &code,
                     std::vector<Finding> &findings)
{
    const char *const kAdvice =
        " without a guard: mark it const/constexpr/constinit, make "
        "it std::atomic or thread_local, or protect it with an "
        "annotated util::Mutex (DTRANK_GUARDED_BY)";

    // Pass (a): `static` declarations anywhere.
    for (std::size_t i = 0; i < code.size(); ++i) {
        if (!isIdent(*code[i], "static"))
            continue;
        bool guarded = false;
        bool is_function = false;
        for (std::size_t j = i + 1; j < code.size(); ++j) {
            const Token &t = *code[j];
            if (t.kind == TokenKind::Identifier) {
                if (isStaticGuard(t.text))
                    guarded = true;
                continue;
            }
            if (t.kind != TokenKind::Punct)
                continue;
            if (t.text == "(") {
                is_function = true;
                break;
            }
            if (t.text == ";" || t.text == "{" || t.text == "=")
                break;
        }
        if (!guarded && !is_function)
            findings.push_back({"no-unguarded-static", path,
                                code[i]->line,
                                std::string("mutable static state") +
                                    kAdvice});
    }

    // Pass (b): namespace-scope declarations without `static`.

    // Brace kinds: true = namespace-like (namespace X {, extern "C" {).
    std::vector<bool> brace_is_namespace;

    auto namespaceBraceAt = [&](std::size_t open) {
        std::size_t j = open;
        while (j > 0) {
            const Token &prev = *code[j - 1];
            if (isIdent(prev, "namespace"))
                return true;
            if (prev.kind == TokenKind::Identifier ||
                isPunct(prev, "::")) {
                --j;
                continue;
            }
            if (prev.kind == TokenKind::String && j >= 2 &&
                isIdent(*code[j - 2], "extern"))
                return true; // extern "C" { ... }
            return false;
        }
        return false;
    };

    auto atNamespaceScope = [&]() {
        return std::all_of(brace_is_namespace.begin(),
                           brace_is_namespace.end(),
                           [](bool ns) { return ns; });
    };

    // Skips a balanced region starting at an open token index;
    // returns the index of the matching close (or the end).
    auto skipBalanced = [&](std::size_t open, const char *open_text,
                            const char *close_text) {
        int depth = 0;
        std::size_t j = open;
        for (; j < code.size(); ++j) {
            if (isPunct(*code[j], open_text))
                ++depth;
            else if (isPunct(*code[j], close_text) && --depth == 0)
                break;
        }
        return j;
    };

    std::size_t i = 0;
    while (i < code.size()) {
        const Token &token = *code[i];
        if (isPunct(token, "{")) {
            brace_is_namespace.push_back(namespaceBraceAt(i));
            ++i;
            continue;
        }
        if (isPunct(token, "}")) {
            if (!brace_is_namespace.empty())
                brace_is_namespace.pop_back();
            ++i;
            continue;
        }

        // A statement starts at an identifier directly after `;`,
        // `{`, `}` or the file start — never mid-declaration (that
        // exempts `namespace fs = ...` aliases and qualified names).
        const Token *prev = i > 0 ? code[i - 1] : nullptr;
        const bool at_boundary =
            prev == nullptr || isPunct(*prev, ";") ||
            isPunct(*prev, "{") || isPunct(*prev, "}");
        const bool statement_start =
            at_boundary && atNamespaceScope() &&
            token.kind == TokenKind::Identifier &&
            !isStaticGuard(token.text) && token.text != "static";
        if (!statement_start) {
            ++i;
            continue;
        }

        // Scan the declaration up to its first structural token.
        bool guarded = false;
        bool has_static = false;
        bool is_function = false;
        std::size_t j = i;
        for (; j < code.size(); ++j) {
            const Token &t = *code[j];
            if (t.kind == TokenKind::Identifier) {
                if (t.text == "static")
                    has_static = true;
                else if (isStaticGuard(t.text))
                    guarded = true;
                continue;
            }
            if (t.kind != TokenKind::Punct)
                continue;
            if (t.text == "(") {
                is_function = true;
                break;
            }
            if (t.text == ";" || t.text == "{" || t.text == "=")
                break;
        }

        if (!is_function && !guarded && !has_static &&
            j < code.size())
            findings.push_back(
                {"no-unguarded-static", path, token.line,
                 std::string("mutable file-scope state") + kAdvice});

        // Move past the whole statement: balanced init braces or the
        // function's parameter list and body.
        for (; j < code.size(); ++j) {
            const Token &t = *code[j];
            if (isPunct(t, "(")) {
                j = skipBalanced(j, "(", ")");
                continue;
            }
            if (isPunct(t, "{")) {
                j = skipBalanced(j, "{", "}");
                // A definition body may end without `;`.
                if (j + 1 < code.size() && isPunct(*code[j + 1], ";"))
                    ++j;
                break;
            }
            if (isPunct(t, ";"))
                break;
        }
        i = j + 1;
    }
}

/**
 * no-libm-exp: a call of libm's exp (`std::exp`, `::exp` or a bare
 * `exp(`) outside src/simd. libm's bits depend on the host — glibc
 * alone picks an FMA or a non-FMA exp by CPU — so library code calls
 * the project's exp (simd::exp, or the exp/sigmoid kernels), which
 * has one set of bits everywhere. Member calls (`kt.exp(`) and other
 * qualifiers (`simd::exp(`) do not match.
 */
void
checkLibmExp(const std::string &path,
             const std::vector<const Token *> &code,
             std::vector<Finding> &findings)
{
    for (std::size_t i = 0; i < code.size(); ++i) {
        if (!isIdent(*code[i], "exp"))
            continue;
        const bool qualified = i > 0 && isPunct(*code[i - 1], "::");
        const bool member =
            i > 0 && (isPunct(*code[i - 1], ".") ||
                      isPunct(*code[i - 1], "->"));
        // `return ::exp(x)`: a keyword before `::` is no scope.
        const Token *scope =
            qualified && i > 1 &&
                    code[i - 2]->kind == TokenKind::Identifier &&
                    !isIdent(*code[i - 2], "return") &&
                    !isIdent(*code[i - 2], "case")
                ? code[i - 2]
                : nullptr;
        const bool called =
            i + 1 < code.size() && isPunct(*code[i + 1], "(");
        const bool libm =
            scope != nullptr ? scope->text == "std" : (called && !member);
        if (libm)
            findings.push_back(
                {"no-libm-exp", path, code[i]->line,
                 "libm exp outside src/simd: its bits depend on the "
                 "host's libm (glibc picks an FMA or a non-FMA exp by "
                 "CPU); call simd::exp or the exp/sigmoid kernels"});
    }
}

// --------------------------------------------------------------------

struct LexedFile
{
    std::vector<Token> tokens;
    std::vector<LineView> lines;
};

LexedFile
lexFile(const std::string &content)
{
    LexedFile file;
    file.tokens = lex(content);
    file.lines = buildLineViews(file.tokens, lineCount(content));
    return file;
}

void
runLineRules(const std::string &path, const LexedFile &file,
             std::vector<Finding> &findings)
{
    for (const LineRule &rule : lineRules()) {
        if (!rule.applies(path))
            continue;
        for (std::size_t i = 0; i < file.lines.size(); ++i) {
            const std::string message = rule.match(file.lines[i]);
            if (message.empty() ||
                suppressedAt(file.lines, i + 1, rule.id))
                continue;
            findings.push_back({rule.id, path, i + 1, message});
        }
    }

    if (isHeaderPath(path)) {
        bool has_pragma = false;
        for (const LineView &line : file.lines) {
            for (std::size_t i = 0; i + 2 < line.code.size(); ++i) {
                if (isPunct(*line.code[i], "#") &&
                    isIdent(*line.code[i + 1], "pragma") &&
                    isIdent(*line.code[i + 2], "once")) {
                    has_pragma = true;
                    break;
                }
            }
            if (has_pragma)
                break;
        }
        if (!has_pragma &&
            !suppresses(file.lines.front().comment, "pragma-once"))
            findings.push_back(
                {"pragma-once", path, 1,
                 "header must contain #pragma once (include-guard "
                 "macros drift when files move)"});
    }
}

void
runDeterminismRules(const std::string &path, const LexedFile &file,
                    std::vector<Finding> &findings)
{
    if (!underDir(path, "src"))
        return;
    const std::vector<const Token *> code = codeTokens(file.tokens);
    std::vector<Finding> raw;
    if (!underDir(path, "src/simd")) {
        checkFpAccumulate(path, code, raw);
        checkLibmExp(path, code, raw);
    }
    checkUnorderedIteration(path, code, raw);
    checkUnguardedStatic(path, code, raw);
    for (Finding &finding : raw)
        if (!suppressedAt(file.lines, finding.line, finding.rule))
            findings.push_back(std::move(finding));
}

void
sortFindings(std::vector<Finding> &findings)
{
    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
}

/**
 * Line `line` (1-based) of `content` with leading and trailing
 * whitespace removed and inner runs of whitespace collapsed to one
 * space; empty when out of range.
 */
std::string
collapsedLine(const std::string &content, std::size_t line)
{
    std::size_t begin = 0;
    for (std::size_t n = 1; n < line; ++n) {
        begin = content.find('\n', begin);
        if (begin == std::string::npos)
            return {};
        ++begin;
    }
    const std::size_t end = std::min(content.find('\n', begin),
                                     content.size());
    std::string out;
    bool gap = false;
    for (std::size_t i = begin; i < end; ++i) {
        const char c = content[i];
        if (c == ' ' || c == '\t' || c == '\r') {
            gap = !out.empty();
            continue;
        }
        if (gap)
            out += ' ';
        gap = false;
        out += c;
    }
    return out;
}

/** Minimal JSON string escaping (quotes, backslash, control chars). */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 8);
    for (const char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                static constexpr char kHex[] = "0123456789abcdef";
                out += "\\u00";
                out += kHex[(c >> 4) & 0xF];
                out += kHex[c & 0xF];
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

std::string
formatFinding(const Finding &finding)
{
    std::ostringstream out;
    out << finding.file << ":" << finding.line << ": ["
        << finding.rule << "] " << finding.message;
    return out.str();
}

std::vector<std::string>
ruleIds()
{
    std::vector<std::string> ids;
    for (const LineRule &rule : lineRules())
        ids.push_back(rule.id);
    for (const char *id :
         {"pragma-once", "layering", "include-cycle", "unused-include",
          "orphan-header",
          "no-fp-accumulate", "no-unordered-iteration",
          "no-unguarded-static", "no-libm-exp"})
        ids.push_back(id);
    return ids;
}

std::vector<Finding>
analyzeSources(const std::vector<SourceFile> &files,
               const std::vector<SourceFile> &includers)
{
    std::vector<Finding> findings;
    // Line views per path, kept for suppression of cross-file rules.
    std::vector<std::pair<std::string, LexedFile>> lexed;
    lexed.reserve(files.size());
    for (const SourceFile &file : files)
        lexed.emplace_back(file.path, lexFile(file.content));

    for (const auto &[path, file] : lexed) {
        runLineRules(path, file, findings);
        runDeterminismRules(path, file, findings);
    }

    for (Finding &finding : includeGraphFindings(files, includers)) {
        const auto it = std::find_if(
            lexed.begin(), lexed.end(),
            [&](const auto &entry) { return entry.first == finding.file; });
        if (it != lexed.end() &&
            suppressedAt(it->second.lines, finding.line, finding.rule))
            continue;
        findings.push_back(std::move(finding));
    }

    // The baseline keys on each finding's source line.
    for (Finding &finding : findings) {
        const auto it = std::find_if(
            files.begin(), files.end(),
            [&](const SourceFile &file) { return file.path == finding.file; });
        if (it != files.end())
            finding.source = collapsedLine(it->content, finding.line);
    }
    sortFindings(findings);
    return findings;
}

std::vector<Finding>
analyzeContent(const std::string &path, const std::string &content)
{
    return analyzeSources({{path, content}});
}

namespace
{

/**
 * Appends the repo-relative path of every .h/.hpp/.cpp/.cc file under
 * root/<top> (or top itself when it names a file), skipping
 * directories named "fixtures" or "build".
 */
void
listSources(const std::string &root, const std::string &top,
            std::vector<std::string> &paths)
{
    namespace fs = std::filesystem;
    static constexpr std::string_view kExtensions[] = {
        ".h", ".hpp", ".cpp", ".cc",
    };
    const fs::path dir = fs::path(root) / top;
    if (fs::is_regular_file(dir)) {
        paths.push_back(top); // an explicit file target
        return;
    }
    if (!fs::is_directory(dir))
        throw util::IoError("no such file or directory: " + dir.string());
    auto it = fs::recursive_directory_iterator(dir);
    for (const fs::directory_entry &entry : it) {
        const std::string name = entry.path().filename().string();
        if (entry.is_directory() && (name == "fixtures" || name == "build")) {
            it.disable_recursion_pending();
            continue;
        }
        if (!entry.is_regular_file())
            continue;
        const std::string ext = entry.path().extension().string();
        if (std::find(std::begin(kExtensions), std::end(kExtensions),
                      ext) == std::end(kExtensions))
            continue;
        paths.push_back(fs::relative(entry.path(), root).generic_string());
    }
}

std::vector<SourceFile>
readSources(const std::string &root, std::vector<std::string> paths)
{
    std::sort(paths.begin(), paths.end());
    std::vector<SourceFile> files;
    files.reserve(paths.size());
    for (const std::string &path : paths) {
        const std::filesystem::path full = std::filesystem::path(root) / path;
        std::ifstream in(full, std::ios::binary);
        if (!in)
            throw util::IoError("cannot read " + full.string());
        std::ostringstream buffer;
        buffer << in.rdbuf();
        files.push_back({path, buffer.str()});
    }
    return files;
}

} // namespace

std::vector<Finding>
analyzeTree(const std::string &root,
            const std::vector<std::string> &top_dirs)
{
    static const std::vector<std::string> kDefaultDirs = {
        "src", "tools", "bench"};
    // The benchmark's harness links the program but is not held to
    // its rules: its includes only count as uses of src/ headers.
    static const std::string kHarnessDir = "perfbench";

    const std::vector<std::string> &dirs =
        top_dirs.empty() ? kDefaultDirs : top_dirs;
    std::vector<std::string> paths;
    for (const std::string &top : dirs)
        listSources(root, top, paths);
    std::vector<std::string> harness;
    if (std::find(dirs.begin(), dirs.end(), kHarnessDir) == dirs.end() &&
        std::filesystem::is_directory(std::filesystem::path(root) /
                                      kHarnessDir))
        listSources(root, kHarnessDir, harness);
    return analyzeSources(readSources(root, std::move(paths)),
                          readSources(root, std::move(harness)));
}

std::string
toJson(const std::vector<Finding> &findings)
{
    std::ostringstream out;
    out << "{\n  \"count\": " << findings.size()
        << ",\n  \"findings\": [";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &finding = findings[i];
        out << (i == 0 ? "\n" : ",\n");
        out << "    {\"rule\": \"" << jsonEscape(finding.rule)
            << "\", \"file\": \"" << jsonEscape(finding.file)
            << "\", \"line\": " << finding.line
            << ", \"message\": \"" << jsonEscape(finding.message)
            << "\"}";
    }
    out << (findings.empty() ? "]" : "\n  ]") << "\n}\n";
    return out.str();
}

std::string
toSarif(const std::vector<Finding> &findings)
{
    std::ostringstream out;
    out << "{\n"
        << "  \"$schema\": "
           "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
        << "  \"version\": \"2.1.0\",\n"
        << "  \"runs\": [\n"
        << "    {\n"
        << "      \"tool\": {\n"
        << "        \"driver\": {\n"
        << "          \"name\": \"dtrank_analyze\",\n"
        << "          \"rules\": [";
    const std::vector<std::string> ids = ruleIds();
    for (std::size_t i = 0; i < ids.size(); ++i) {
        out << (i == 0 ? "\n" : ",\n");
        out << "            {\"id\": \"" << jsonEscape(ids[i])
            << "\"}";
    }
    out << "\n          ]\n"
        << "        }\n"
        << "      },\n"
        << "      \"results\": [";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &finding = findings[i];
        out << (i == 0 ? "\n" : ",\n");
        out << "        {\"ruleId\": \"" << jsonEscape(finding.rule)
            << "\", \"level\": \"error\", \"message\": {\"text\": \""
            << jsonEscape(finding.message)
            << "\"}, \"locations\": [{\"physicalLocation\": "
               "{\"artifactLocation\": {\"uri\": \""
            << jsonEscape(finding.file)
            << "\"}, \"region\": {\"startLine\": " << finding.line
            << "}}}]}";
    }
    out << (findings.empty() ? "]\n" : "\n      ]\n")
        << "    }\n"
        << "  ]\n"
        << "}\n";
    return out.str();
}

std::string
baselineKey(const Finding &finding)
{
    std::string key = finding.rule + " " + finding.file + ":";
    if (!finding.source.empty())
        key += " " + finding.source;
    return key;
}

Baseline
parseBaseline(const std::string &text)
{
    Baseline keys;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t begin = line.find_first_not_of(" \t\r");
        if (begin == std::string::npos || line[begin] == '#')
            continue;
        const std::size_t end = line.find_last_not_of(" \t\r");
        ++keys[line.substr(begin, end - begin + 1)];
    }
    return keys;
}

std::string
renderBaseline(const std::vector<Finding> &findings)
{
    std::vector<std::string> keys;
    for (const Finding &finding : findings)
        keys.push_back(baselineKey(finding));
    std::sort(keys.begin(), keys.end());
    std::ostringstream out;
    out << "# dtrank_analyze baseline: tracked legacy findings.\n"
        << "# One `rule path: source line` per finding, whitespace "
           "collapsed; a line\n"
        << "# listed n times absorbs n findings. New findings fail the "
           "build.\n"
        << "# Regenerate with: dtrank_analyze --write-baseline\n";
    for (const std::string &key : keys)
        out << key << "\n";
    return out.str();
}

std::vector<Finding>
filterBaselined(const std::vector<Finding> &findings, Baseline baseline)
{
    std::vector<Finding> kept;
    for (const Finding &finding : findings) {
        const auto it = baseline.find(baselineKey(finding));
        if (it != baseline.end() && it->second > 0)
            --it->second;
        else
            kept.push_back(finding);
    }
    return kept;
}

} // namespace dtrank::analyze
