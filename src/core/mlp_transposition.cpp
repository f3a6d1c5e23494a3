#include "core/mlp_transposition.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "simd/simd.h"
#include "util/error.h"

namespace dtrank::core
{

namespace
{

/**
 * Per-benchmark (row) mean over the observed cells, in raw score
 * space; rows with nothing observed fall back to 1.0 (the neutral
 * SPEC ratio). Requires a materialized mask.
 */
std::vector<double>
observedBenchMeans(const linalg::Matrix &scores,
                   const dataset::ScoreMask &mask)
{
    std::vector<double> means(scores.rows(), 1.0);
    for (std::size_t b = 0; b < scores.rows(); ++b) {
        const std::size_t n = mask.observedInRow(b);
        if (n == 0)
            continue;
        const double sum = simd::kernels().maskedSum(
            scores.rowData(b), mask.rowData(b), scores.cols());
        means[b] = sum / static_cast<double>(n);
    }
    return means;
}

} // namespace

MlpTransposition::MlpTransposition(MlpTranspositionConfig config)
    : config_(std::move(config))
{
}

std::vector<double>
MlpTransposition::predict(const TranspositionProblem &problem)
{
    fit(problem);
    return predictColumns(problem.targetBenchScores, problem.targetMask);
}

void
MlpTransposition::fit(const TranspositionProblem &problem)
{
    problem.validate();
    const std::size_t n_bench = problem.benchmarkCount();
    const std::size_t n_pred = problem.predictiveMachineCount();
    const std::size_t n_target = problem.targetMachineCount();

    auto maybe_log = [&](double v) {
        return config_.logSpace ? std::log2(v) : v;
    };

    // Ragged problems: unobserved features are imputed with their
    // benchmark's observed mean, and machines whose app score is
    // unobserved are dropped from the training set. Dense problems
    // take the exact same loops with every mask query answering true
    // and the kept-row list being the identity.
    std::vector<double> pred_means;
    if (!problem.predictiveMask.dense())
        pred_means = observedBenchMeans(problem.predictiveBenchScores,
                                        problem.predictiveMask);
    std::vector<std::size_t> kept;
    kept.reserve(n_pred);
    for (std::size_t p = 0; p < n_pred; ++p)
        if (problem.appScoreValid(p))
            kept.push_back(p);

    // Training matrix: one row per (kept) predictive machine
    // (transposed view of the benchmark x machine data — the "data
    // transposition").
    linalg::Matrix train(kept.size(), n_bench);
    std::vector<double> targets(kept.size());
    for (std::size_t r = 0; r < kept.size(); ++r) {
        const std::size_t p = kept[r];
        for (std::size_t b = 0; b < n_bench; ++b) {
            const double raw =
                problem.predictiveMask.valid(b, p)
                    ? problem.predictiveBenchScores(b, p)
                    : pred_means[b];
            train(r, b) = maybe_log(raw);
        }
        targets[r] = maybe_log(problem.predictiveAppScores[p]);
    }

    ml::MlpConfig mlp_config = config_.mlp;
    feature_norm_ = ml::RangeNormalizer{};
    target_norm_ = ml::RangeNormalizer{};
    if (config_.transductiveNormalization) {
        // Feature scaling over predictive + target machines (all
        // published data). The network's own normalizer would refit on
        // the training rows alone and undo this, so normalization is
        // handled entirely here — including the numeric target.
        std::vector<double> target_means;
        if (!problem.targetMask.dense())
            target_means = observedBenchMeans(problem.targetBenchScores,
                                              problem.targetMask);
        // Per-benchmark range over the kept predictive rows, then the
        // targets: the order RangeNormalizer::fit visits a stacked
        // (kept + targets) x bench matrix, so min/max get the same
        // bits, swept feature-major without staging that matrix.
        util::require(!kept.empty() || n_target > 0,
                      "MlpTransposition::fit: no machines to normalize "
                      "over");
        std::vector<double> lo(n_bench);
        std::vector<double> hi(n_bench);
        for (std::size_t b = 0; b < n_bench; ++b) {
            const double *src = problem.targetBenchScores.rowData(b);
            auto target_value = [&](std::size_t t) {
                return maybe_log(problem.targetMask.valid(b, t)
                                     ? src[t]
                                     : target_means[b]);
            };
            std::size_t t = 0;
            double l = kept.empty() ? target_value(t++) : train(0, b);
            double h = l;
            for (std::size_t r = 1; r < kept.size(); ++r) {
                l = std::min(l, train(r, b));
                h = std::max(h, train(r, b));
            }
            for (; t < n_target; ++t) {
                const double v = target_value(t);
                l = std::min(l, v);
                h = std::max(h, v);
            }
            lo[b] = l;
            hi[b] = h;
        }
        feature_norm_.setRanges(std::move(lo), std::move(hi));
        train = feature_norm_.transform(train);
        target_norm_.fitSeries(targets);
        for (double &v : targets)
            v = target_norm_.transformScalar(v);
        mlp_config.normalize = false;
    }

    network_.emplace(mlp_config);
    network_->fit(train, targets);
    last_mse_ = network_->trainingMse();
}

std::vector<double>
MlpTransposition::predictColumns(linalg::Matrix target_bench_scores) const
{
    util::require(network_.has_value() && network_->trained(),
                  "MlpTransposition::predictColumns: fit() first");
    const std::size_t n_bench = target_bench_scores.rows();
    const std::size_t n_target = target_bench_scores.cols();
    util::require(n_bench == network_->inputSize(),
                  "MlpTransposition::predictColumns: benchmark count "
                  "does not match the fitted network");

    auto maybe_exp = [&](double v) {
        return config_.logSpace ? std::exp2(v) : v;
    };

    // Log and normalize in place, feature-major: one benchmark row at
    // a time (each row has one min/max pair), leaving the layout the
    // network's column-major forward pass reads. Same per-element
    // expressions as the row-major transforms, so the same bits.
    for (std::size_t b = 0; b < n_bench; ++b) {
        double *row = target_bench_scores.rowData(b);
        if (config_.logSpace)
            for (std::size_t t = 0; t < n_target; ++t)
                row[t] = std::log2(row[t]);
        if (config_.transductiveNormalization)
            feature_norm_.transformFeature(b, row, row, n_target);
    }
    std::vector<double> predictions =
        network_->predictColumns(target_bench_scores);
    for (std::size_t t = 0; t < n_target; ++t) {
        double raw = predictions[t];
        if (config_.transductiveNormalization)
            raw = target_norm_.inverseTransformScalar(raw);
        predictions[t] = maybe_exp(raw);
        // SPEC ratios are positive; clamp pathological extrapolations.
        if (!config_.logSpace && predictions[t] <= 0.0)
            predictions[t] = 1e-6;
    }
    return predictions;
}

std::vector<double>
MlpTransposition::predictColumns(
    const linalg::Matrix &target_bench_scores,
    const dataset::ScoreMask &mask) const
{
    if (mask.dense())
        return predictColumns(target_bench_scores);
    util::require(mask.rows() == target_bench_scores.rows() &&
                      mask.cols() == target_bench_scores.cols(),
                  "MlpTransposition::predictColumns: mask shape "
                  "mismatch");
    // Impute unobserved cells, then take the dense path; an all-valid
    // materialized mask replaces nothing, so the copy is bit-identical
    // to the input.
    linalg::Matrix filled = target_bench_scores;
    const std::vector<double> means =
        observedBenchMeans(target_bench_scores, mask);
    for (std::size_t b = 0; b < filled.rows(); ++b)
        for (std::size_t t = 0; t < filled.cols(); ++t)
            if (!mask.valid(b, t))
                filled(b, t) = means[b];
    return predictColumns(std::move(filled));
}

double
MlpTransposition::lastTrainingMse() const
{
    util::require(last_mse_.has_value(),
                  "MlpTransposition::lastTrainingMse: no prediction made "
                  "yet");
    return *last_mse_;
}

} // namespace dtrank::core
