/**
 * @file
 * Project include-graph extraction and layering rules.
 *
 * dtrank's modules form a strict DAG; the build system cannot enforce
 * it (every static library sees the whole src/ include path), so the
 * analyzer does. Edges are the `#include "..."` operands lexed as
 * HeaderName tokens; angle-bracket includes are system headers and are
 * never edges.
 *
 * The enforced order (lower may never include higher):
 *
 *     layer 0  util
 *     layer 1  obs
 *     layer 2  simd
 *     layer 3  linalg
 *     layer 4  stats
 *     layer 5  ml, dataset
 *     layer 6  baseline, core
 *     layer 7  experiments
 *     layer 8  serve
 *     layer 9  applications: tools/, tests/, bench/, examples/
 *
 * Note the deliberate departure from "simd at the top": the SIMD
 * kernels are a leaf provider (linalg dispatches into them through the
 * KernelTable), so simd sits *below* linalg — an include from simd up
 * into linalg would be the real layering bug.
 *
 * Same-layer modules (ml/dataset, baseline/core) may include each
 * other in one direction; a mutual pair is reported as a module cycle.
 * File-level include cycles are reported separately (they can exist
 * even inside a single module).
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "tools/analyze/analyze.h"

namespace dtrank::analyze
{

/** One `#include "..."` edge from a project file to a project path. */
struct IncludeEdge
{
    std::string from;   ///< Repo-relative path of the including file.
    std::string target; ///< Include operand as written, e.g. "util/rng.h".
    std::size_t line;   ///< 1-based line of the directive.
};

/**
 * The module of a repo-relative path: "util" for src/util/...,
 * "tools" for tools/..., "" when the path matches no known module.
 */
std::string moduleOf(const std::string &path);

/** The DAG layer of a module; -1 when the module is unknown. */
int moduleLayer(const std::string &module);

/** Extracts every project (quoted) include edge of one file. */
std::vector<IncludeEdge> includeEdges(const SourceFile &file);

/**
 * Runs the cross-file rules over a source set:
 *  - "layering": edges whose target module sits above the including
 *    module, or in a different module of the same layer when the
 *    reverse edge also exists elsewhere in the set (module cycle).
 *  - "include-cycle": file-level cycles among the set's headers.
 *  - "unused-include": direct includes of a header present in the set
 *    none of whose provided names appear in the including file.
 *  - "orphan-header": a src/ header that no file includes except its
 *    own .cpp and files under tests/. Production cannot reach what it
 *    declares, so it is deleted or moved into tests/. Judged only when
 *    the set (or `includers`) holds application code, i.e. a file
 *    outside src/ and tests/: a library fragment cannot tell.
 *
 * `sources` is the whole analysis set; findings refer to files in it.
 * `includers` are files outside the set whose includes also count as
 * uses of a header (perfbench's harness); no rule checks them.
 */
std::vector<Finding>
includeGraphFindings(const std::vector<SourceFile> &sources,
                     const std::vector<SourceFile> &includers = {});

} // namespace dtrank::analyze
