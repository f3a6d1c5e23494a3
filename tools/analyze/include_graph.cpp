#include "tools/analyze/include_graph.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "tools/analyze/lexer.h"

namespace dtrank::analyze
{

namespace
{

/** Module -> DAG layer. See include_graph.h for the rationale. */
const std::map<std::string, int> &
layerTable()
{
    static const std::map<std::string, int> layers = {
        {"util", 0},     {"obs", 1},         {"simd", 2},
        {"linalg", 3},   {"stats", 4},       {"ml", 5},
        {"dataset", 5},  {"baseline", 6},    {"core", 6},
        {"experiments", 7},
        // The serving layer wraps the experiment harness in a daemon.
        {"serve", 8},
        // Applications sit on top and may depend on everything.
        {"tools", 9},    {"tests", 9},       {"bench", 9},
        {"examples", 9},
    };
    return layers;
}

bool
startsWith(const std::string &text, const std::string &prefix)
{
    return text.compare(0, prefix.size(), prefix) == 0;
}

/**
 * Resolves an include operand to a repo-relative path. src/ modules
 * include each other relative to src/ ("util/rng.h"); application
 * code includes itself repo-relative ("tools/analyze/analyze.h").
 */
std::string
resolveTarget(const std::string &target)
{
    for (const char *top : {"src/", "tools/", "tests/", "bench/",
                            "examples/"})
        if (startsWith(target, top))
            return target;
    return "src/" + target;
}

/** Identifiers that precede `(` without declaring anything. */
bool
isNonDeclaringKeyword(const std::string &text)
{
    static const std::set<std::string> keywords = {
        "if",       "for",       "while",    "switch",   "return",
        "sizeof",   "catch",     "decltype", "alignas",  "alignof",
        "defined",  "noexcept",  "throw",    "new",      "delete",
        "this",     "operator",  "requires", "explicit", "typename",
        "template", "else",      "do",       "case",     "goto",
        "static_assert",         "assert",   "co_await", "co_return",
        "co_yield", "static_cast",           "const_cast",
        "dynamic_cast",          "reinterpret_cast",
    };
    return keywords.count(text) != 0;
}

/**
 * The names a header plausibly provides to its includers. Generous by
 * design — the unused-include rule only fires when *none* of these
 * appear in the includer — so it collects:
 *   - type names: the identifier after class/struct/enum/union/concept
 *     (skipping an `enum class`/`enum struct` head);
 *   - macro names: the identifier after a preprocessor `define`;
 *   - alias names: the identifier after `using` (not `using
 *     namespace`);
 *   - function and variable names: any identifier directly followed
 *     by `(` or `=`, minus control-flow keywords.
 * Namespace names are deliberately excluded: every project header
 * opens `namespace dtrank`, which would mark all of them used
 * everywhere.
 */
std::set<std::string>
providedNames(const std::vector<Token> &tokens)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const Token &token = tokens[i];
        if (token.kind != TokenKind::Identifier)
            continue;
        auto nextIdent = [&](std::size_t from) -> const Token * {
            for (std::size_t j = from; j < tokens.size(); ++j) {
                if (tokens[j].kind == TokenKind::Comment)
                    continue;
                if (tokens[j].kind == TokenKind::Identifier)
                    return &tokens[j];
                return nullptr;
            }
            return nullptr;
        };
        if (token.text == "class" || token.text == "struct" ||
            token.text == "union" || token.text == "concept") {
            if (const Token *name = nextIdent(i + 1))
                names.insert(name->text);
            continue;
        }
        if (token.text == "enum") {
            const Token *name = nextIdent(i + 1);
            if (name != nullptr &&
                (name->text == "class" || name->text == "struct")) {
                std::size_t at = i + 1;
                while (at < tokens.size() && &tokens[at] != name)
                    ++at;
                name = nextIdent(at + 1);
            }
            if (name != nullptr)
                names.insert(name->text);
            continue;
        }
        if (token.preprocessor && token.text == "define") {
            if (const Token *name = nextIdent(i + 1))
                names.insert(name->text);
            continue;
        }
        if (token.text == "using") {
            const Token *name = nextIdent(i + 1);
            if (name != nullptr && name->text != "namespace")
                names.insert(name->text);
            continue;
        }
        if (token.text == "namespace") {
            // Skip the name (see the doc comment above).
            continue;
        }
        if (i + 1 < tokens.size() &&
            tokens[i + 1].kind == TokenKind::Punct &&
            (tokens[i + 1].text == "(" || tokens[i + 1].text == "=") &&
            !isNonDeclaringKeyword(token.text))
            names.insert(token.text);
    }
    return names;
}

/** Every identifier spelling appearing in a token stream. */
std::unordered_set<std::string>
usedNames(const std::vector<Token> &tokens)
{
    std::unordered_set<std::string> names;
    for (const Token &token : tokens)
        if (token.kind == TokenKind::Identifier)
            names.insert(token.text);
    return names;
}

/** True when `file` is the implementation file of header `header`
 *  (same directory, same stem — foo.cpp legitimately includes foo.h
 *  regardless of whether it repeats any declared name). */
bool
isOwnHeader(const std::string &file, const std::string &header)
{
    auto stem = [](const std::string &path) {
        const std::size_t dot = path.rfind('.');
        return dot == std::string::npos ? path : path.substr(0, dot);
    };
    return stem(file) == stem(header);
}

struct GraphState
{
    /// path -> lexed tokens, for every file in the set.
    std::unordered_map<std::string, std::vector<Token>> tokens;
    /// path -> outgoing edges with resolved targets.
    std::unordered_map<std::string, std::vector<IncludeEdge>> edges;
    std::vector<std::string> ordered_paths;
};

void
checkLayering(const GraphState &graph, std::vector<Finding> &findings)
{
    // Module-level directed edges, with the first file:line exhibiting
    // each, so mutual same-layer includes can be reported as cycles.
    std::map<std::pair<std::string, std::string>,
             std::pair<std::string, std::size_t>>
        module_edges;

    for (const std::string &path : graph.ordered_paths) {
        const std::string from_module = moduleOf(path);
        const int from_layer = moduleLayer(from_module);
        if (from_layer < 0)
            continue;
        for (const IncludeEdge &edge : graph.edges.at(path)) {
            const std::string to_module = moduleOf(edge.target);
            const int to_layer = moduleLayer(to_module);
            if (to_layer < 0 || to_module == from_module)
                continue;
            if (to_layer > from_layer) {
                findings.push_back(
                    {"layering", path, edge.line,
                     "include of \"" + edge.target +
                         "\" reaches up the module DAG: " +
                         from_module + " (layer " +
                         std::to_string(from_layer) +
                         ") may not depend on " + to_module +
                         " (layer " + std::to_string(to_layer) + ")"});
                continue;
            }
            if (to_layer == from_layer)
                module_edges.emplace(
                    std::make_pair(from_module, to_module),
                    std::make_pair(path, edge.line));
        }
    }

    for (const auto &[pair, site] : module_edges) {
        if (module_edges.count({pair.second, pair.first}) == 0)
            continue;
        findings.push_back(
            {"layering", site.first, site.second,
             "module cycle: " + pair.first + " and " + pair.second +
                 " are same-layer modules that include each other; "
                 "one direction must go"});
    }
}

void
checkFileCycles(const GraphState &graph, std::vector<Finding> &findings)
{
    enum class Color
    {
        White,
        Gray,
        Black
    };
    std::unordered_map<std::string, Color> color;
    for (const std::string &path : graph.ordered_paths)
        color[path] = Color::White;
    // One finding per distinct cycle, keyed by its sorted members.
    std::set<std::vector<std::string>> reported;

    std::vector<std::string> stack;
    // Explicit DFS; (node, next-edge-index) frames.
    struct Frame
    {
        std::string node;
        std::size_t next = 0;
    };
    for (const std::string &root : graph.ordered_paths) {
        if (color[root] != Color::White)
            continue;
        std::vector<Frame> frames{{root}};
        color[root] = Color::Gray;
        stack.push_back(root);
        while (!frames.empty()) {
            Frame &frame = frames.back();
            const auto &out = graph.edges.at(frame.node);
            if (frame.next >= out.size()) {
                color[frame.node] = Color::Black;
                stack.pop_back();
                frames.pop_back();
                continue;
            }
            const IncludeEdge &edge = out[frame.next++];
            if (graph.tokens.count(edge.target) == 0)
                continue; // Target outside the analysis set.
            const Color target_color = color[edge.target];
            if (target_color == Color::Gray) {
                auto start = std::find(stack.begin(), stack.end(),
                                       edge.target);
                std::vector<std::string> members(start, stack.end());
                std::vector<std::string> key = members;
                std::sort(key.begin(), key.end());
                if (reported.insert(key).second) {
                    std::string chain;
                    for (const std::string &member : members)
                        chain += member + " -> ";
                    chain += edge.target;
                    findings.push_back({"include-cycle", frame.node,
                                        edge.line,
                                        "include cycle: " + chain});
                }
                continue;
            }
            if (target_color == Color::White) {
                color[edge.target] = Color::Gray;
                stack.push_back(edge.target);
                frames.push_back({edge.target});
            }
        }
    }
}

void
checkUnusedIncludes(const GraphState &graph,
                    std::vector<Finding> &findings)
{
    std::unordered_map<std::string, std::set<std::string>> provided;
    for (const std::string &path : graph.ordered_paths) {
        const auto it = graph.edges.find(path);
        if (it == graph.edges.end())
            continue;
        const std::unordered_set<std::string> used =
            usedNames(graph.tokens.at(path));
        for (const IncludeEdge &edge : it->second) {
            const auto target = graph.tokens.find(edge.target);
            if (target == graph.tokens.end())
                continue; // Header contents unavailable: no verdict.
            if (isOwnHeader(path, edge.target))
                continue;
            auto cached = provided.find(edge.target);
            if (cached == provided.end())
                cached = provided
                             .emplace(edge.target,
                                      providedNames(target->second))
                             .first;
            const std::set<std::string> &names = cached->second;
            if (names.empty())
                continue; // Umbrella / macro-free header: no verdict.
            const bool any_used =
                std::any_of(names.begin(), names.end(),
                            [&](const std::string &name) {
                                return used.count(name) != 0;
                            });
            if (!any_used)
                findings.push_back(
                    {"unused-include", path, edge.line,
                     "unused include: nothing declared in \"" +
                         edge.target + "\" is referenced here"});
        }
    }
}

} // namespace

std::string
moduleOf(const std::string &path)
{
    for (const char *top : {"tools", "tests", "bench", "examples"})
        if (startsWith(path, std::string(top) + "/"))
            return top;
    if (!startsWith(path, "src/"))
        return "";
    const std::size_t slash = path.find('/', 4);
    if (slash == std::string::npos)
        return "";
    const std::string module = path.substr(4, slash - 4);
    return layerTable().count(module) != 0 ? module : "";
}

int
moduleLayer(const std::string &module)
{
    const auto it = layerTable().find(module);
    return it == layerTable().end() ? -1 : it->second;
}

std::vector<IncludeEdge>
includeEdges(const SourceFile &file)
{
    std::vector<IncludeEdge> edges;
    for (const Token &token : lex(file.content)) {
        if (token.kind != TokenKind::HeaderName)
            continue;
        // Angle-bracket operands are system headers, never edges.
        if (token.text.size() < 2 || token.text.front() != '"')
            continue;
        const std::string operand =
            token.text.substr(1, token.text.size() - 2);
        edges.push_back({file.path, resolveTarget(operand), token.line});
    }
    return edges;
}

void
checkOrphanHeaders(const GraphState &graph,
                   const std::vector<SourceFile> &includers,
                   std::vector<Finding> &findings)
{
    auto is_app = [](const std::string &path) {
        return !startsWith(path, "src/") && !startsWith(path, "tests/");
    };
    if (includers.empty() && std::none_of(graph.ordered_paths.begin(),
                                          graph.ordered_paths.end(), is_app))
        return;

    std::unordered_set<std::string> used;
    auto note = [&](const std::string &from,
                    const std::vector<IncludeEdge> &edges) {
        if (startsWith(from, "tests/"))
            return;
        for (const IncludeEdge &edge : edges)
            if (!isOwnHeader(from, edge.target))
                used.insert(edge.target);
    };
    for (const std::string &path : graph.ordered_paths)
        note(path, graph.edges.at(path));
    for (const SourceFile &file : includers)
        note(file.path, includeEdges(file));

    for (const std::string &path : graph.ordered_paths) {
        const bool header = path.size() > 2 &&
                            path.compare(path.size() - 2, 2, ".h") == 0;
        if (startsWith(path, "src/") && header && used.count(path) == 0)
            findings.push_back(
                {"orphan-header", path, 1,
                 "no file outside tests/ includes this header except its "
                 "own .cpp, so production cannot reach it: delete it or "
                 "move it into tests/"});
    }
}

std::vector<Finding>
includeGraphFindings(const std::vector<SourceFile> &sources,
                     const std::vector<SourceFile> &includers)
{
    GraphState graph;
    for (const SourceFile &file : sources) {
        graph.tokens.emplace(file.path, lex(file.content));
        graph.edges.emplace(file.path, includeEdges(file));
        graph.ordered_paths.push_back(file.path);
    }
    std::sort(graph.ordered_paths.begin(), graph.ordered_paths.end());

    std::vector<Finding> findings;
    checkLayering(graph, findings);
    checkFileCycles(graph, findings);
    checkUnusedIncludes(graph, findings);
    checkOrphanHeaders(graph, includers, findings);
    return findings;
}

} // namespace dtrank::analyze
