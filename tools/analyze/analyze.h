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
 *   orphan-header     a src/ header no file includes but its own .cpp
 *                     and tests/ (see include_graph.h)
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
 *   no-libm-exp       a call of libm's exp (std::exp, ::exp or a
 *                     bare exp() in src/ outside src/simd: its bits
 *                     depend on the host's libm, while simd::exp and
 *                     the exp/sigmoid kernels have one set everywhere
 *
 * Suppression: append `// dtrank-analyze-ignore` (all rules) or
 * `// dtrank-analyze-ignore(rule-id)` to the offending line, or put
 * the comment alone on the line directly above it. The historical
 * `dtrank-lint-ignore` spelling is honored too, so existing
 * suppressions keep working.
 *
 * Baseline: legacy findings are tracked in a checked-in baseline file
 * (tools/analyze/baseline.txt, `#` comments allowed), one
 * `rule path: source` entry per finding, `source` being the finding's
 * line with its whitespace collapsed. Keying by content rather than
 * line number lets a tracked line move when code above it changes.
 * An entry listed n times absorbs n findings with that key, so a new
 * copy of a tracked line in the same file is still a new finding.
 * Findings the baseline absorbs are filtered out; anything new fails.
 * `--write-baseline` regenerates the file.
 */

#pragma once

#include <cstddef>
#include <map>
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
    /** The line at `line`, whitespace-collapsed (see analyzeSources). */
    std::string source = {};
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
 * unused-include, which needs the header's contents). `includers`
 * count as users of headers for orphan-header and are not analyzed.
 * Findings are sorted by file, then line, then rule, and carry their
 * source line.
 */
std::vector<Finding>
analyzeSources(const std::vector<SourceFile> &files,
               const std::vector<SourceFile> &includers = {});

/** Analyzes one in-memory file (include-graph rules see only it). */
std::vector<Finding> analyzeContent(const std::string &path,
                                    const std::string &content);

/**
 * Walks root/<dir> for every dir in `top_dirs` (default: src, tools,
 * bench), reads every .h/.hpp/.cpp/.cc file — skipping directories
 * named "fixtures" or "build" — and analyzes them together. The files
 * of root/perfbench, when it exists and is not among `top_dirs`, are
 * the orphan-header rule's `includers`.
 * @throws util::IoError when a file cannot be read.
 */
std::vector<Finding>
analyzeTree(const std::string &root,
            const std::vector<std::string> &top_dirs = {});

/** Findings as a JSON document `{"findings": [...], "count": N}`. */
std::string toJson(const std::vector<Finding> &findings);

/** Findings as a SARIF 2.1.0 document (one run, one result each). */
std::string toSarif(const std::vector<Finding> &findings);

/** Baseline keys, each with the number of findings it absorbs. */
using Baseline = std::map<std::string, std::size_t>;

/** The baseline key of a finding: `rule path: source`. */
std::string baselineKey(const Finding &finding);

/** Parses a baseline document (one key per line, `#` comments). */
Baseline parseBaseline(const std::string &text);

/** Renders findings as a baseline document (sorted, commented). */
std::string renderBaseline(const std::vector<Finding> &findings);

/**
 * Drops, in order, each finding whose key the baseline still holds a
 * count for, using one count per finding dropped.
 */
std::vector<Finding> filterBaselined(const std::vector<Finding> &findings,
                                     Baseline baseline);

} // namespace dtrank::analyze
