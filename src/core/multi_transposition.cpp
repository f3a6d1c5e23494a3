#include "core/multi_transposition.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/line_scan.h"
#include "stats/regression.h"
#include "util/error.h"

namespace dtrank::core
{

namespace
{

/** Ridge penalty keeping collinear proxy sets solvable. */
constexpr double kRidge = 1e-6;

} // namespace

MultiTransposition::MultiTransposition(MultiTranspositionConfig config)
    : config_(config)
{
    util::require(config_.proxies >= 1,
                  "MultiTransposition: proxies must be >= 1");
}

std::string
MultiTransposition::name() const
{
    return std::to_string(config_.proxies) + "NN^T";
}

std::vector<double>
MultiTransposition::predict(const TranspositionProblem &problem)
{
    problem.validate();
    // No native masked path: the multi-proxy ridge solve needs a
    // complete design matrix, so ragged problems are densified by
    // imputation first.
    if (problem.masked())
        return predict(densifiedProblem(problem));
    const std::size_t n_bench = problem.benchmarkCount();
    const std::size_t n_pred = problem.predictiveMachineCount();
    const std::size_t n_target = problem.targetMachineCount();
    util::require(n_bench >= 2,
                  "MultiTransposition: needs >= 2 training benchmarks");

    auto maybe_log = [&](double v) {
        return config_.logSpace ? std::log2(v) : v;
    };
    auto maybe_exp = [&](double v) {
        return config_.logSpace ? std::exp2(v) : v;
    };

    const std::vector<std::vector<double>> pred_cols =
        machineColumns(problem.predictiveBenchScores, config_.logSpace);

    // Rank predictive machines by their single-proxy fit, as NN^T
    // does: every predictor's RSS against every target.
    std::vector<double> fit_rss(n_target * n_pred);
    scanLineFits(pred_cols, problem.targetBenchScores, config_.logSpace,
                 1, [&](std::size_t t, std::size_t p, const LineFit &fit) {
                     fit_rss[t * n_pred + p] = fit.rss;
                 });

    const std::size_t k = std::min(config_.proxies, n_pred);
    diagnostics_ = MultiTranspositionDiagnostics{};
    diagnostics_.chosenProxies.assign(n_target, {});
    diagnostics_.fitRSquared.assign(n_target, 0.0);

    std::vector<double> predictions(n_target, 0.0);
    for (std::size_t t = 0; t < n_target; ++t) {
        std::vector<double> y = problem.targetBenchScores.column(t);
        if (config_.logSpace)
            for (double &v : y)
                v = std::log2(v);

        // Keep the k best (ties broken by index) as joint regressors
        // and fit the ridge regression.
        const double *rss = fit_rss.data() + t * n_pred;
        std::vector<std::size_t> order(n_pred);
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::partial_sort(order.begin(),
                          order.begin() + static_cast<std::ptrdiff_t>(k),
                          order.end(),
                          [&](std::size_t a, std::size_t b) {
                              if (rss[a] != rss[b])
                                  return rss[a] < rss[b];
                              return a < b;
                          });
        order.resize(k);

        linalg::Matrix design(n_bench, k);
        for (std::size_t j = 0; j < k; ++j)
            design.setColumn(j, pred_cols[order[j]]);
        const stats::MultipleLinearRegression fit(design, y, kRidge);

        std::vector<double> app_features(k);
        for (std::size_t j = 0; j < k; ++j)
            app_features[j] =
                maybe_log(problem.predictiveAppScores[order[j]]);
        predictions[t] = maybe_exp(fit.predict(app_features));
        if (!config_.logSpace && !(predictions[t] > 0.0))
            predictions[t] = 1e-6;

        diagnostics_.chosenProxies[t] = order;
        diagnostics_.fitRSquared[t] = fit.rSquared();
    }
    return predictions;
}

} // namespace dtrank::core
