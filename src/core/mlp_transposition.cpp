#include "core/mlp_transposition.h"

#include <algorithm>
#include <cmath>
#include <map>
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

double
maybeLog(bool log_space, double v)
{
    return log_space ? std::log2(v) : v;
}

/**
 * Training inputs: one row per kept predictive machine, one column per
 * benchmark row of `scores` (the transposed view of the benchmark x
 * machine data — the "data transposition"). Unobserved cells are
 * imputed with their benchmark's observed mean, then every cell is
 * logged in log space. Dense scores take the same loop with every mask
 * query answering true.
 */
linalg::Matrix
trainingRows(const linalg::Matrix &scores, const dataset::ScoreMask &mask,
             const std::vector<std::size_t> &kept, bool log_space)
{
    std::vector<double> means;
    if (!mask.dense())
        means = observedBenchMeans(scores, mask);
    linalg::Matrix train(kept.size(), scores.rows());
    for (std::size_t r = 0; r < kept.size(); ++r) {
        const std::size_t p = kept[r];
        for (std::size_t b = 0; b < scores.rows(); ++b)
            train(r, b) = maybeLog(
                log_space, mask.valid(b, p) ? scores(b, p) : means[b]);
    }
    return train;
}

/**
 * The transductive feature scaling: per benchmark, the range over the
 * training rows, then the target machines (unobserved target cells
 * imputed with their benchmark's observed target mean, logged like the
 * rows). That is the order RangeNormalizer::fit visits a stacked
 * (rows + targets) x bench matrix, so min/max get the same bits,
 * swept feature-major without staging that matrix.
 */
ml::RangeNormalizer
transductiveNormalizer(const linalg::Matrix &train,
                       const linalg::Matrix &target_scores,
                       const dataset::ScoreMask &target_mask,
                       bool log_space)
{
    const std::size_t n_bench = target_scores.rows();
    const std::size_t n_target = target_scores.cols();
    util::require(train.rows() > 0 || n_target > 0,
                  "MlpTransposition::fit: no machines to normalize over");
    std::vector<double> target_means;
    if (!target_mask.dense())
        target_means = observedBenchMeans(target_scores, target_mask);
    std::vector<double> lo(n_bench);
    std::vector<double> hi(n_bench);
    for (std::size_t b = 0; b < n_bench; ++b) {
        const double *src = target_scores.rowData(b);
        auto target_value = [&](std::size_t t) {
            return maybeLog(log_space, target_mask.valid(b, t)
                                           ? src[t]
                                           : target_means[b]);
        };
        std::size_t t = 0;
        double l = train.rows() == 0 ? target_value(t++) : train(0, b);
        double h = l;
        for (std::size_t r = 1; r < train.rows(); ++r) {
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
    ml::RangeNormalizer norm;
    norm.setRanges(std::move(lo), std::move(hi));
    return norm;
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
    const std::size_t n_pred = problem.predictiveMachineCount();

    // Ragged problems: machines whose app score is unobserved are
    // dropped from the training set (and unobserved features imputed,
    // see trainingRows). Dense problems keep every machine.
    std::vector<std::size_t> kept;
    kept.reserve(n_pred);
    for (std::size_t p = 0; p < n_pred; ++p)
        if (problem.appScoreValid(p))
            kept.push_back(p);
    linalg::Matrix train =
        trainingRows(problem.predictiveBenchScores, problem.predictiveMask,
                     kept, config_.logSpace);
    std::vector<double> targets(kept.size());
    for (std::size_t r = 0; r < kept.size(); ++r)
        targets[r] =
            maybeLog(config_.logSpace, problem.predictiveAppScores[kept[r]]);

    feature_norm_ = ml::RangeNormalizer{};
    if (config_.transductiveNormalization) {
        // Feature scaling over predictive + target machines (all
        // published data).
        feature_norm_ = transductiveNormalizer(
            train, problem.targetBenchScores, problem.targetMask,
            config_.logSpace);
        train = feature_norm_.transform(train);
    }
    const ml::MlpConfig mlp_config = networkConfig(targets);
    network_.emplace(mlp_config);
    network_->fit(train, targets);
}

ml::MlpConfig
MlpTransposition::networkConfig(std::vector<double> &targets)
{
    ml::MlpConfig mlp_config = config_.mlp;
    target_norm_ = ml::RangeNormalizer{};
    if (config_.transductiveNormalization) {
        // The network's own normalizer would refit on the training
        // rows alone and undo the transductive scaling, so
        // normalization is handled here — including the numeric
        // target.
        target_norm_.fitSeries(targets);
        for (double &v : targets)
            v = target_norm_.transformScalar(v);
        mlp_config.normalize = false;
    }
    return mlp_config;
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

MlpTransposition::HeldOutPlan
MlpTransposition::planHeldOutApps(const dataset::PerfDatabase &predictive,
                                  const dataset::PerfDatabase &target,
                                  const std::vector<std::size_t> &apps,
                                  const std::vector<std::uint64_t> &seeds)
{
    const std::size_t n_bench = predictive.benchmarkCount();
    const std::size_t n_pred = predictive.machineCount();
    util::require(seeds.size() == apps.size(),
                  "MlpTransposition::planHeldOutApps: one seed per app");
    util::require(target.benchmarkCount() == n_bench && n_bench >= 2,
                  "MlpTransposition::planHeldOutApps: needs aligned "
                  "benchmark rows and a training benchmark besides the "
                  "app");
    for (std::size_t b = 0; b < n_bench; ++b)
        util::require(predictive.benchmark(b).name ==
                          target.benchmark(b).name,
                      "MlpTransposition::planHeldOutApps: benchmark "
                      "rows are not aligned");
    for (std::size_t app : apps)
        util::require(app < n_bench,
                      "MlpTransposition::planHeldOutApps: app out of "
                      "range");

    // Apps train on the predictive machines observing them; apps that
    // keep the same machines share one (normalized) row block.
    const dataset::ScoreMask &pred_mask = predictive.mask();
    std::map<std::vector<std::size_t>, std::vector<std::size_t>> by_kept;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        std::vector<std::size_t> kept;
        kept.reserve(n_pred);
        for (std::size_t p = 0; p < n_pred; ++p)
            if (pred_mask.valid(apps[i], p))
                kept.push_back(p);
        by_kept[std::move(kept)].push_back(i);
    }

    HeldOutPlan plan;
    plan.blocks.reserve(by_kept.size());
    for (auto &[kept, members] : by_kept) {
        const std::size_t block = plan.blocks.size();
        plan.blocks.push_back(kept);
        // Balanced lane groups: as few as the lane width allows.
        const std::size_t groups =
            (members.size() + simd::kMlpLanes - 1) / simd::kMlpLanes;
        std::size_t next = 0;
        for (std::size_t g = 0; g < groups; ++g) {
            const std::size_t size = members.size() / groups +
                                     (g < members.size() % groups ? 1 : 0);
            const auto first =
                members.begin() + static_cast<std::ptrdiff_t>(next);
            plan.groups.push_back(
                {block, {first, first + static_cast<std::ptrdiff_t>(size)}});
            next += size;
        }
    }
    return plan;
}

void
MlpTransposition::trainHeldOutGroup(const MlpTranspositionConfig &config,
                                    const dataset::PerfDatabase &predictive,
                                    const dataset::PerfDatabase &target,
                                    const std::vector<std::size_t> &apps,
                                    const std::vector<std::uint64_t> &seeds,
                                    const HeldOutPlan &plan,
                                    std::size_t group,
                                    std::vector<std::vector<double>> &out)
{
    const std::size_t n_bench = predictive.benchmarkCount();
    const linalg::Matrix &pred_scores = predictive.scores();
    const HeldOutPlan::Group &task = plan.groups[group];
    const std::vector<std::size_t> &kept = plan.blocks[task.block];

    // A benchmark's imputed mean and range do not depend on the
    // held-out app, so neither do the block's cells: every group of
    // the block builds the same matrix.
    linalg::Matrix x =
        trainingRows(pred_scores, predictive.mask(), kept, config.logSpace);
    ml::RangeNormalizer norm;
    if (config.transductiveNormalization) {
        norm = transductiveNormalizer(x, target.scores(), target.mask(),
                                      config.logSpace);
        x = norm.transform(x);
    }

    const std::size_t k = task.lanes.size();
    std::vector<MlpTransposition> predictors;
    std::vector<ml::Mlp> nets;
    std::vector<std::vector<std::size_t>> columns(k);
    std::vector<std::vector<double>> targets(k);
    predictors.reserve(k);
    nets.reserve(k);
    for (std::size_t l = 0; l < k; ++l) {
        const std::size_t app = apps[task.lanes[l]];
        MlpTranspositionConfig cfg = config;
        cfg.mlp.seed = seeds[task.lanes[l]];
        MlpTransposition &pr = predictors.emplace_back(cfg);
        for (std::size_t b = 0; b < n_bench; ++b)
            if (b != app)
                columns[l].push_back(b);
        const double *app_row = pred_scores.rowData(app);
        for (std::size_t p : kept)
            targets[l].push_back(maybeLog(config.logSpace, app_row[p]));
        if (config.transductiveNormalization)
            pr.feature_norm_ = norm.selectFeatures(columns[l]);
        nets.emplace_back(pr.networkConfig(targets[l]));
    }
    ml::Mlp::fitLanes(nets, x, columns, targets);
    for (std::size_t l = 0; l < k; ++l) {
        const std::size_t app = apps[task.lanes[l]];
        MlpTransposition &pr = predictors[l];
        pr.network_.emplace(std::move(nets[l]));
        out[task.lanes[l]] =
            pr.predictColumns(target.scores().selectRowsExcept(app),
                              target.mask().selectRowsExcept(app));
    }
}

} // namespace dtrank::core
