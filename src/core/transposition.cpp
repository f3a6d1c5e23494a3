#include "core/transposition.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "simd/simd.h"
#include "util/error.h"

namespace dtrank::core
{

namespace
{

/**
 * True when every valid cell of `scores` is finite and positive (a
 * NaN fails both comparisons).
 */
bool
validCellsPositiveFinite(const linalg::Matrix &scores,
                         const dataset::ScoreMask &mask)
{
    constexpr double kMax = std::numeric_limits<double>::max();
    for (std::size_t r = 0; r < scores.rows(); ++r) {
        const double *row = scores.rowData(r);
        bool bad = false;
        for (std::size_t c = 0; c < scores.cols(); ++c)
            bad |= !(row[c] > 0.0 && row[c] <= kMax) && mask.valid(r, c);
        if (bad)
            return false;
    }
    return true;
}

} // namespace

std::size_t
TranspositionProblem::observedAppScores() const
{
    if (appValid.empty())
        return predictiveAppScores.size();
    std::size_t n = 0;
    for (std::size_t p = 0; p < predictiveAppScores.size(); ++p)
        if (appScoreValid(p))
            ++n;
    return n;
}

void
TranspositionProblem::validate() const
{
    util::require(predictiveBenchScores.rows() > 0,
                  "TranspositionProblem: no training benchmarks");
    util::require(predictiveBenchScores.cols() > 0,
                  "TranspositionProblem: no predictive machines");
    util::require(targetBenchScores.cols() > 0,
                  "TranspositionProblem: no target machines");
    util::require(predictiveAppScores.size() ==
                      predictiveBenchScores.cols(),
                  "TranspositionProblem: app score count must match "
                  "predictive machine count");
    util::require(targetBenchScores.rows() ==
                      predictiveBenchScores.rows(),
                  "TranspositionProblem: benchmark row mismatch between "
                  "predictive and target sets");
    if (!predictiveMask.dense())
        util::require(predictiveMask.rows() ==
                              predictiveBenchScores.rows() &&
                          predictiveMask.cols() ==
                              predictiveBenchScores.cols(),
                      "TranspositionProblem: predictive mask shape "
                      "mismatch");
    if (!targetMask.dense())
        util::require(targetMask.rows() == targetBenchScores.rows() &&
                          targetMask.cols() == targetBenchScores.cols(),
                      "TranspositionProblem: target mask shape mismatch");
    if (!appValid.empty()) {
        util::require(appValid.size() ==
                          (predictiveAppScores.size() + 63) / 64,
                      "TranspositionProblem: app validity word count "
                      "mismatch");
        util::require(observedAppScores() > 0,
                      "TranspositionProblem: application of interest "
                      "has no valid entries (all-missing row)");
    }
    for (std::size_t p = 0; p < predictiveAppScores.size(); ++p)
        if (appScoreValid(p))
            util::require(std::isfinite(predictiveAppScores[p]) &&
                              predictiveAppScores[p] > 0.0,
                          "TranspositionProblem: scores must be "
                          "positive and finite");
    util::require(
        validCellsPositiveFinite(predictiveBenchScores, predictiveMask) &&
            validCellsPositiveFinite(targetBenchScores, targetMask),
        "TranspositionProblem: benchmark scores must be positive and "
        "finite");
}

namespace
{

/** Packed validity bits of one benchmark row (empty when dense). */
std::vector<std::uint64_t>
appRowValidity(const dataset::PerfDatabase &db, std::size_t app_row)
{
    if (!db.masked())
        return {};
    const std::uint64_t *words = db.mask().rowData(app_row);
    return {words, words + db.mask().rowWords()};
}

} // namespace

TranspositionProblem
makeProblem(const dataset::PerfDatabase &predictive,
            const dataset::PerfDatabase &target,
            const std::string &app_benchmark)
{
    util::require(predictive.hasBenchmark(app_benchmark),
                  "makeProblem: predictive database lacks the "
                  "application of interest '" + app_benchmark + "'");
    const std::size_t app_row = predictive.benchmarkIndex(app_benchmark);

    // Training benchmarks = all predictive rows except the app row,
    // matched by name in the target database.
    std::vector<std::size_t> pred_rows;
    std::vector<std::size_t> target_rows;
    for (std::size_t b = 0; b < predictive.benchmarkCount(); ++b) {
        if (b == app_row)
            continue;
        const std::string &name = predictive.benchmark(b).name;
        util::require(target.hasBenchmark(name),
                      "makeProblem: target database lacks benchmark '" +
                          name + "'");
        pred_rows.push_back(b);
        target_rows.push_back(target.benchmarkIndex(name));
    }
    util::require(!pred_rows.empty(),
                  "makeProblem: no training benchmarks besides the "
                  "application of interest");

    TranspositionProblem problem;
    problem.predictiveBenchScores =
        predictive.scores().selectRows(pred_rows);
    problem.predictiveAppScores = predictive.benchmarkScores(app_row);
    problem.targetBenchScores = target.scores().selectRows(target_rows);
    problem.predictiveMask = predictive.mask().selectRows(pred_rows);
    problem.targetMask = target.mask().selectRows(target_rows);
    problem.appValid = appRowValidity(predictive, app_row);
    problem.validate();
    return problem;
}

TranspositionProblem
makeLeaveOneOutProblem(const dataset::PerfDatabase &predictive,
                       const dataset::PerfDatabase &target,
                       std::size_t app_row)
{
    util::require(app_row < predictive.benchmarkCount(),
                  "makeLeaveOneOutProblem: app_row out of range");
    util::require(predictive.benchmarkCount() == target.benchmarkCount(),
                  "makeLeaveOneOutProblem: benchmark count mismatch");
    util::require(predictive.benchmarkCount() >= 2,
                  "makeLeaveOneOutProblem: no training benchmarks "
                  "besides the application of interest");
    for (std::size_t b = 0; b < predictive.benchmarkCount(); ++b)
        util::require(predictive.benchmark(b).name ==
                          target.benchmark(b).name,
                      "makeLeaveOneOutProblem: benchmark rows are not "
                      "aligned");

    TranspositionProblem problem;
    problem.predictiveBenchScores =
        predictive.scores().selectRowsExcept(app_row);
    problem.predictiveAppScores = predictive.benchmarkScores(app_row);
    problem.targetBenchScores = target.scores().selectRowsExcept(app_row);
    problem.predictiveMask = predictive.mask().selectRowsExcept(app_row);
    problem.targetMask = target.mask().selectRowsExcept(app_row);
    problem.appValid = appRowValidity(predictive, app_row);
    problem.validate();
    return problem;
}

namespace
{

/**
 * Imputes one matrix's unobserved cells with their row's observed
 * mean (1.0 when the row has nothing observed). Returns the matrix
 * unchanged — bit for bit — when the mask is dense or all-valid.
 */
linalg::Matrix
imputeRowMeans(const linalg::Matrix &scores,
               const dataset::ScoreMask &mask)
{
    if (mask.dense())
        return scores;
    linalg::Matrix out = scores;
    for (std::size_t r = 0; r < scores.rows(); ++r) {
        const std::size_t n = mask.observedInRow(r);
        double mean = 1.0;
        if (n > 0) {
            const double sum = simd::kernels().maskedSum(
                scores.rowData(r), mask.rowData(r), scores.cols());
            mean = sum / static_cast<double>(n);
        }
        for (std::size_t c = 0; c < scores.cols(); ++c)
            if (!mask.valid(r, c))
                out(r, c) = mean;
    }
    return out;
}

} // namespace

TranspositionProblem
densifiedProblem(const TranspositionProblem &problem)
{
    if (!problem.masked())
        return problem;
    problem.validate();

    std::vector<std::size_t> kept;
    kept.reserve(problem.predictiveMachineCount());
    for (std::size_t p = 0; p < problem.predictiveMachineCount(); ++p)
        if (problem.appScoreValid(p))
            kept.push_back(p);

    TranspositionProblem out;
    out.predictiveBenchScores =
        imputeRowMeans(problem.predictiveBenchScores,
                       problem.predictiveMask)
            .selectColumns(kept);
    out.predictiveAppScores.reserve(kept.size());
    for (std::size_t p : kept)
        out.predictiveAppScores.push_back(
            problem.predictiveAppScores[p]);
    out.targetBenchScores =
        imputeRowMeans(problem.targetBenchScores, problem.targetMask);
    out.validate();
    return out;
}

TranspositionProblem
makeProblemFromSplit(const dataset::PerfDatabase &db,
                     const std::vector<std::size_t> &predictive_machines,
                     const std::vector<std::size_t> &target_machines,
                     const std::string &app_benchmark)
{
    util::require(!predictive_machines.empty(),
                  "makeProblemFromSplit: empty predictive set");
    util::require(!target_machines.empty(),
                  "makeProblemFromSplit: empty target set");
    for (std::size_t p : predictive_machines)
        util::require(std::find(target_machines.begin(),
                                target_machines.end(),
                                p) == target_machines.end(),
                      "makeProblemFromSplit: predictive and target "
                      "machine sets overlap");
    return makeProblem(db.selectMachines(predictive_machines),
                       db.selectMachines(target_machines), app_benchmark);
}

} // namespace dtrank::core
