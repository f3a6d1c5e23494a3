#include "core/spline_transposition.h"

#include <limits>

#include "core/line_scan.h"
#include "stats/spline.h"
#include "util/error.h"

namespace dtrank::core
{

namespace
{

/** Knots per spline; stats::SplineRegression shrinks it on small data. */
constexpr std::size_t kKnots = 4;

} // namespace

std::vector<double>
SplineTransposition::predict(const TranspositionProblem &problem)
{
    problem.validate();
    // No native masked path: spline knot placement needs complete
    // columns, so ragged problems are densified by imputation first.
    if (problem.masked())
        return predict(densifiedProblem(problem));
    const std::size_t n_bench = problem.benchmarkCount();
    const std::size_t n_pred = problem.predictiveMachineCount();
    const std::size_t n_target = problem.targetMachineCount();
    util::require(n_bench >= 2,
                  "SplineTransposition: needs >= 2 training benchmarks");

    const std::vector<std::vector<double>> pred_cols =
        machineColumns(problem.predictiveBenchScores, false);

    diagnostics_ = SplineTranspositionDiagnostics{};
    diagnostics_.chosenPredictive.assign(n_target, 0);
    diagnostics_.fitRSquared.assign(n_target, 0.0);

    std::vector<double> predictions(n_target, 0.0);
    for (std::size_t t = 0; t < n_target; ++t) {
        const std::vector<double> y = problem.targetBenchScores.column(t);

        double best_rss = std::numeric_limits<double>::infinity();
        std::size_t best_p = 0;
        double best_prediction = 0.0;
        double best_r2 = 0.0;

        for (std::size_t p = 0; p < n_pred; ++p) {
            const stats::SplineRegression fit(pred_cols[p], y, kKnots);
            if (fit.residualSumSquares() < best_rss) {
                best_rss = fit.residualSumSquares();
                best_p = p;
                best_r2 = fit.rSquared();
                best_prediction =
                    fit.predict(problem.predictiveAppScores[p]);
            }
        }

        predictions[t] = best_prediction;
        if (predictions[t] <= 0.0)
            predictions[t] = 1e-6;
        diagnostics_.chosenPredictive[t] = best_p;
        diagnostics_.fitRSquared[t] = best_r2;
    }
    return predictions;
}

} // namespace dtrank::core
