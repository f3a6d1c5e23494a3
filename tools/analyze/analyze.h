/**
 * @file
 * dtrank_analyze: token-level static analysis engine.
 *
 * Successor to the line/regex dtrank_lint, whose rules it runs
 * token-accurately alongside its own. Rules run over the token
 * stream produced by lexer.h — so comments, string bodies, raw
 * strings and preprocessor lines are classified correctly — and over
 * the project include graph extracted by include_graph.h, which
 * regex rules could never see.
 *
 * Rule catalog (see DESIGN.md "Static analysis & determinism
 * contracts" for rationale):
 *
 * Ported line rules (token-accurate, same IDs and scopes as the old
 * linter):
 *   no-raw-rand, no-cout-in-src, no-float-kernel, no-naked-new,
 *   no-std-mutex, no-raw-intrinsics, no-raw-clock, pragma-once
 *
 * Cross-file rules (include graph):
 *   layering          an #include that points from a module to one
 *                     above it in the module DAG
 *                     util -> obs -> simd -> linalg -> stats ->
 *                     ml/dataset -> baseline/core -> experiments,
 *                     or a mutual include between same-layer modules
 *   include-cycle     a cycle among project headers
 *   unused-include    a direct include of a project header none of
 *                     whose declared names the includer mentions
 *
 * Determinism-contract rules:
 *   no-fp-accumulate  `+=`/`-=` onto a double scalar inside a loop in
 *                     src/ outside src/simd — scalar reductions
 *                     reorder under vectorization/threading and must
 *                     go through the KernelTable canonical reductions
 *   no-unordered-iteration
 *                     iteration over std::unordered_{map,set,...} —
 *                     iteration order is nondeterministic, so results
 *                     that feed arithmetic or output drift across
 *                     platforms and runs
 *   no-unguarded-static
 *                     mutable file-scope/static state in src/ with no
 *                     const/constexpr, no std::atomic, no
 *                     DTRANK_GUARDED_BY annotation and no util::Mutex
 *
 * Suppression: append `// dtrank-analyze-ignore` (all rules) or
 * `// dtrank-analyze-ignore(rule-id)` to the offending line, or put
 * the comment alone on the line directly above it. The historical
 * `dtrank-lint-ignore` spelling is honored too, so existing
 * suppressions keep working.
 *
 * Baseline: legacy findings are tracked in a checked-in baseline file
 * (tools/analyze/baseline.txt, one `rule path:line` entry per line,
 * `#` comments allowed). Findings whose key appears in the baseline
 * are filtered out; anything new fails. `--write-baseline`
 * regenerates the file.
 */

#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

namespace dtrank::analyze
{

/** One rule violation at a specific source location. */
struct Finding
{
    std::string rule;    ///< Rule ID, e.g. "layering".
    std::string file;    ///< Repo-relative path as given to the engine.
    std::size_t line;    ///< 1-based line number.
    std::string message; ///< Human-readable explanation.
};

/** One in-memory source file (paths are repo-relative, '/'-separated). */
struct SourceFile
{
    std::string path;
    std::string content;
};

/** `file:line: [rule] message` — the format CI and editors parse. */
std::string formatFinding(const Finding &finding);

/** The IDs of every rule, in report order. */
std::vector<std::string> ruleIds();

/**
 * Analyzes a set of sources together: per-file rules on each file,
 * include-graph rules across the set (project includes that resolve
 * to files outside the set are layer-checked by path but skipped by
 * unused-include, which needs the header's contents). Findings are
 * sorted by file, then line, then rule.
 */
std::vector<Finding> analyzeSources(const std::vector<SourceFile> &files);

/** Analyzes one in-memory file (include-graph rules see only it). */
std::vector<Finding> analyzeContent(const std::string &path,
                                    const std::string &content);

/**
 * Walks root/<dir> for every dir in `top_dirs` (default: src, tools,
 * bench), reads every .h/.hpp/.cpp/.cc file — skipping directories
 * named "fixtures" or "build" — and analyzes them together.
 * @throws util::IoError when a file cannot be read.
 */
std::vector<Finding>
analyzeTree(const std::string &root,
            const std::vector<std::string> &top_dirs = {});

/** Findings as a JSON document `{"findings": [...], "count": N}`. */
std::string toJson(const std::vector<Finding> &findings);

/** Findings as a SARIF 2.1.0 document (one run, one result each). */
std::string toSarif(const std::vector<Finding> &findings);

/** The baseline key of a finding: `rule path:line`. */
std::string baselineKey(const Finding &finding);

/** Parses a baseline document (one key per line, `#` comments). */
std::set<std::string> parseBaseline(const std::string &text);

/** Renders findings as a baseline document (sorted, commented). */
std::string renderBaseline(const std::vector<Finding> &findings);

/** Drops findings whose baselineKey appears in `baseline`. */
std::vector<Finding>
filterBaselined(const std::vector<Finding> &findings,
                const std::set<std::string> &baseline);

} // namespace dtrank::analyze
