#include "core/linear_transposition.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/line_scan.h"
#include "stats/descriptive.h"
#include "stats/regression.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace dtrank::core
{

std::vector<double>
LinearTransposition::predict(const TranspositionProblem &problem)
{
    problem.validate();
    if (problem.masked())
        return predictMasked(problem);
    const std::size_t n_target = problem.targetMachineCount();
    util::require(problem.benchmarkCount() >= 2,
                  "LinearTransposition: needs >= 2 training benchmarks");

    diagnostics_ = LinearTranspositionDiagnostics{};
    diagnostics_.chosenPredictive.assign(n_target, 0);
    diagnostics_.fitRSquared.assign(n_target, 0.0);
    diagnostics_.intercept.assign(n_target, 0.0);
    diagnostics_.slope.assign(n_target, 0.0);

    // The first predictor with the lowest RSS wins.
    std::vector<double> best_rss(n_target,
                                 std::numeric_limits<double>::infinity());
    scanLineFits(
        machineColumns(problem.predictiveBenchScores, config_.logSpace),
        problem.targetBenchScores, config_.logSpace, config_.threads,
        [&](std::size_t t, std::size_t p, const LineFit &fit) {
            if (fit.rss < best_rss[t]) {
                best_rss[t] = fit.rss;
                diagnostics_.chosenPredictive[t] = p;
                diagnostics_.fitRSquared[t] = fit.rSquared;
                diagnostics_.intercept[t] = fit.intercept;
                diagnostics_.slope[t] = fit.slope;
            }
        });

    std::vector<double> predictions(n_target);
    for (std::size_t t = 0; t < n_target; ++t) {
        double app_x =
            problem.predictiveAppScores[diagnostics_.chosenPredictive[t]];
        if (config_.logSpace)
            app_x = std::log2(app_x);
        const double y =
            diagnostics_.intercept[t] + diagnostics_.slope[t] * app_x;
        predictions[t] = config_.logSpace ? std::exp2(y) : y;
    }
    return predictions;
}

std::vector<double>
LinearTransposition::predictMasked(const TranspositionProblem &problem)
{
    const std::size_t n_bench = problem.benchmarkCount();
    const std::size_t n_pred = problem.predictiveMachineCount();
    const std::size_t n_target = problem.targetMachineCount();
    util::require(n_bench >= 2,
                  "LinearTransposition: needs >= 2 training benchmarks");

    auto maybe_log = [&](double v) {
        return config_.logSpace ? std::log2(v) : v;
    };
    auto maybe_exp = [&](double v) {
        return config_.logSpace ? std::exp2(v) : v;
    };

    // Invalid cells hold NaN poison; log2(NaN) is NaN and the
    // compaction below never copies those slots out.
    const std::vector<std::vector<double>> pred_cols =
        machineColumns(problem.predictiveBenchScores, config_.logSpace);

    diagnostics_ = LinearTranspositionDiagnostics{};
    diagnostics_.chosenPredictive.assign(n_target, 0);
    diagnostics_.fitRSquared.assign(n_target, 0.0);
    diagnostics_.intercept.assign(n_target, 0.0);
    diagnostics_.slope.assign(n_target, 0.0);

    std::vector<double> predictions(n_target, 0.0);

    // Targets are independent, so sharding tiles over the pool cannot
    // change a bit of the output (same guarantee as the dense scan).
    const std::size_t n_tiles =
        (n_target + kScanTargetTile - 1) / kScanTargetTile;
    util::parallelFor(config_.threads, n_tiles, [&](std::size_t ti) {
        const std::size_t t0 = ti * kScanTargetTile;
        const std::size_t t1 = std::min(n_target, t0 + kScanTargetTile);

        std::vector<double> xs;
        std::vector<double> ys;
        xs.reserve(n_bench);
        ys.reserve(n_bench);

        for (std::size_t t = t0; t < t1; ++t) {
            std::vector<double> y = problem.targetBenchScores.column(t);
            if (config_.logSpace)
                for (double &v : y)
                    v = std::log2(v);

            double best_rss = std::numeric_limits<double>::infinity();
            bool found = false;
            std::size_t best_p = 0;
            double best_intercept = 0.0;
            double best_slope = 0.0;
            double best_r2 = 0.0;

            for (std::size_t p = 0; p < n_pred; ++p) {
                // A candidate needs its own app score and at least two
                // jointly observed benchmarks to fit a line.
                if (!problem.appScoreValid(p))
                    continue;
                xs.clear();
                ys.clear();
                for (std::size_t b = 0; b < n_bench; ++b)
                    if (problem.predictiveMask.valid(b, p) &&
                        problem.targetMask.valid(b, t)) {
                        xs.push_back(pred_cols[p][b]);
                        ys.push_back(y[b]);
                    }
                if (xs.size() < 2)
                    continue;
                const stats::SimpleLinearRegression fit(xs, ys);
                const double rss = fit.residualSumSquares();
                if (rss < best_rss) {
                    found = true;
                    best_rss = rss;
                    best_p = p;
                    best_intercept = fit.intercept();
                    best_slope = fit.slope();
                    best_r2 = fit.rSquared();
                }
            }

            if (found) {
                const double app_x =
                    maybe_log(problem.predictiveAppScores[best_p]);
                predictions[t] =
                    maybe_exp(best_intercept + best_slope * app_x);
                diagnostics_.chosenPredictive[t] = best_p;
                diagnostics_.fitRSquared[t] = best_r2;
                diagnostics_.intercept[t] = best_intercept;
                diagnostics_.slope[t] = best_slope;
            } else {
                // No admissible candidate: fall back to the observed
                // mean of the target column (a constant model), or 1.0
                // when the column has nothing observed at all.
                ys.clear();
                for (std::size_t b = 0; b < n_bench; ++b)
                    if (problem.targetMask.valid(b, t))
                        ys.push_back(y[b]);
                const double mean_y =
                    ys.empty() ? 0.0 : stats::mean(ys);
                predictions[t] = ys.empty() ? 1.0 : maybe_exp(mean_y);
                diagnostics_.intercept[t] = mean_y;
            }
        }
    });
    return predictions;
}

} // namespace dtrank::core
