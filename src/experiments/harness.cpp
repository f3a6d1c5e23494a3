#include "experiments/harness.h"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "core/transposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/hash.h"

namespace dtrank::experiments
{

namespace
{

/** Split/task counters, registered once on first split (cold path). */
struct HarnessMetrics
{
    obs::Counter &splits;
    obs::Counter &tasks;
};

const HarnessMetrics &
harnessMetrics()
{
    static const HarnessMetrics metrics{
        obs::MetricsRegistry::global().counter(
            "dtrank_splits_total",
            "Predictive/target splits evaluated across all protocols"),
        obs::MetricsRegistry::global().counter(
            "dtrank_split_tasks_total",
            "(method, held-out benchmark) tasks executed")};
    return metrics;
}

/** Adds every MlpConfig field that shapes training to the hash. */
void
hashMlpConfig(util::ContentHasher &hasher, const ml::MlpConfig &cfg)
{
    hasher.add(static_cast<std::uint64_t>(cfg.hiddenLayers.size()));
    for (std::size_t h : cfg.hiddenLayers)
        hasher.add(static_cast<std::uint64_t>(h));
    hasher.add(cfg.learningRate);
    hasher.add(cfg.momentum);
    hasher.add(static_cast<std::uint64_t>(cfg.epochs));
    hasher.add(static_cast<std::uint64_t>(cfg.hiddenActivation));
    hasher.add(static_cast<std::uint64_t>(cfg.outputActivation));
    hasher.add(cfg.seed);
    hasher.add(cfg.normalize);
    hasher.add(cfg.initWeightRange);
    hasher.add(cfg.learningRateDecay);
    hasher.add(cfg.shuffleEachEpoch);
    hasher.add(static_cast<std::uint64_t>(cfg.maxRestarts));
    hasher.add(cfg.divergenceFactor);
    hasher.add(static_cast<std::uint64_t>(cfg.batchSize));
}

/** Validity words of target row `app`, or null for a dense database. */
const std::uint64_t *
targetRowMask(const dataset::PerfDatabase &target_db, std::size_t app)
{
    return target_db.masked() ? target_db.mask().rowData(app) : nullptr;
}

/**
 * A task's prediction when it needs no training. With the app
 * unobserved on every owned machine there is nothing for any model to
 * transpose: the targets are ranked by their overall observed speed
 * instead (only reachable under missingness with a small owned set; a
 * full database never has an empty row). Otherwise, with a cache, the
 * task's key goes to `key` and the cache is looked up.
 *
 * @return true when `predicted` holds the fallback or a cache hit;
 *         false when the caller must train, and then (with a cache)
 *         store its prediction under `key`.
 */
bool
untrainedPrediction(Method method, const MethodSuiteConfig &config,
                    const dataset::PerfDatabase &pred_db,
                    const dataset::PerfDatabase &target_db,
                    std::size_t app, std::uint64_t mlp_seed,
                    TrainedModelCache *cache, util::HashKey &key,
                    std::vector<double> &predicted)
{
    if (pred_db.masked() && pred_db.mask().observedInRow(app) == 0) {
        predicted = target_db.machineGeometricMeans();
        return true;
    }
    if (cache == nullptr)
        return false;
    key = taskPredictionKey(method, config, pred_db, target_db, app,
                            mlp_seed);
    return cache->lookup(key, predicted);
}

/**
 * Every app's MLP^T prediction of one split, as predictTask computes
 * each (the same fallback and cache policy, untrainedPrediction), with
 * the apps that need training trained together by the split-level
 * lane step.
 */
std::vector<std::vector<double>>
predictMlpTSplit(const MethodSuiteConfig &config,
                 const dataset::PerfDatabase &pred_db,
                 const dataset::PerfDatabase &target_db,
                 std::uint64_t split_tag, TrainedModelCache *cache)
{
    const std::size_t n_bench = pred_db.benchmarkCount();
    obs::TraceSpan span("mlpt_split", "experiments");
    span.arg("apps", static_cast<std::uint64_t>(n_bench));
    std::vector<std::vector<double>> predicted(n_bench);
    std::vector<util::HashKey> keys(n_bench);
    std::vector<std::size_t> misses;
    std::vector<std::uint64_t> seeds;
    for (std::size_t app = 0; app < n_bench; ++app) {
        const std::uint64_t seed = taskMlpSeed(config, split_tag, app);
        if (untrainedPrediction(Method::MlpT, config, pred_db, target_db,
                                app, seed, cache, keys[app],
                                predicted[app]))
            continue;
        misses.push_back(app);
        seeds.push_back(seed);
    }
    span.arg("trained", static_cast<std::uint64_t>(misses.size()));
    std::vector<std::vector<double>> trained =
        core::MlpTransposition::predictHeldOutApps(
            config.mlp, pred_db, target_db, misses, seeds,
            config.parallel.threads);
    for (std::size_t i = 0; i < misses.size(); ++i) {
        if (cache != nullptr)
            cache->store(keys[misses[i]], trained[i]);
        predicted[misses[i]] = std::move(trained[i]);
    }
    return predicted;
}

} // namespace

util::HashKey
taskPredictionKey(Method method, const MethodSuiteConfig &config,
                  const dataset::PerfDatabase &pred_db,
                  const dataset::PerfDatabase &target_db, std::size_t app,
                  std::uint64_t mlp_seed)
{
    util::ContentHasher hasher;
    hasher.add(std::string_view("task-prediction"));
    hasher.add(static_cast<std::uint64_t>(method));
    switch (method) {
      case Method::NnT:
        hasher.add(static_cast<std::uint64_t>(config.linear.criterion));
        hasher.add(config.linear.logSpace);
        break;
      case Method::MlpT: {
        ml::MlpConfig mlp = config.mlp.mlp;
        mlp.seed = mlp_seed;
        hashMlpConfig(hasher, mlp);
        hasher.add(config.mlp.logSpace);
        hasher.add(config.mlp.transductiveNormalization);
        break;
      }
      case Method::DeepT: {
        ml::MlpConfig mlp = config.deep.mlp;
        mlp.seed = mlp_seed;
        hashMlpConfig(hasher, mlp);
        hasher.add(config.deep.logSpace);
        hasher.add(config.deep.transductiveNormalization);
        break;
      }
      case Method::SplT:
        hasher.add(static_cast<std::uint64_t>(config.spline.knots));
        hasher.add(config.spline.logSpace);
        break;
      case Method::MultiNnT:
        hasher.add(static_cast<std::uint64_t>(config.multi.proxies));
        hasher.add(config.multi.ridge);
        hasher.add(config.multi.logSpace);
        break;
      case Method::GaKnn:
        DTRANK_ASSERT_MSG(false, "GA-kNN predictions are not cached");
        break;
    }
    hashMatrix(hasher, pred_db.scores());
    hashMatrix(hasher, target_db.scores());
    hasher.add(static_cast<std::uint64_t>(app));
    return hasher.key();
}

std::vector<double>
predictTask(Method method, const MethodSuiteConfig &config,
            const dataset::PerfDatabase &pred_db,
            const dataset::PerfDatabase &target_db, std::size_t app,
            std::uint64_t mlp_seed,
            const baseline::GaKnnModel *gaknn_model,
            const linalg::Matrix *characteristics,
            TrainedModelCache *cache)
{
    // Transposition predictions are cached per task; GA-kNN is not
    // (its per-task prediction is a cheap kNN combine — the expensive
    // GA training is cached at the split level by the caller).
    if (method == Method::GaKnn)
        cache = nullptr;
    util::HashKey key;
    std::vector<double> predicted;
    if (untrainedPrediction(method, config, pred_db, target_db, app,
                            mlp_seed, cache, key, predicted))
        return predicted;

    switch (method) {
      case Method::NnT: {
        core::LinearTransposition predictor(config.linear);
        predicted = predictor.predict(
            core::makeLeaveOneOutProblem(pred_db, target_db, app));
        break;
      }
      case Method::MlpT: {
        core::MlpTranspositionConfig cfg = config.mlp;
        cfg.mlp.seed = mlp_seed;
        core::MlpTransposition predictor(cfg);
        predicted = predictor.predict(
            core::makeLeaveOneOutProblem(pred_db, target_db, app));
        break;
      }
      case Method::GaKnn: {
        // Copy-free leave-one-out: the app's own row is excluded
        // from the neighbour candidates by index instead of
        // materializing (N-1)-row copies of the characteristics
        // and score matrices.
        DTRANK_ASSERT_MSG(gaknn_model != nullptr &&
                              characteristics != nullptr,
                          "predictTask: GA-kNN needs a split model and "
                          "characteristics");
        predicted = gaknn_model->predictApp(
            characteristics->row(app), *characteristics,
            target_db.scores(), app,
            target_db.masked() ? &target_db.mask() : nullptr);
        break;
      }
      case Method::SplT: {
        core::SplineTransposition predictor(config.spline);
        predicted = predictor.predict(
            core::makeLeaveOneOutProblem(pred_db, target_db, app));
        break;
      }
      case Method::MultiNnT: {
        core::MultiTransposition predictor(config.multi);
        predicted = predictor.predict(
            core::makeLeaveOneOutProblem(pred_db, target_db, app));
        break;
      }
      case Method::DeepT: {
        core::MlpTranspositionConfig cfg = config.deep;
        cfg.mlp.seed = mlp_seed;
        core::MlpTransposition predictor(cfg);
        predicted = predictor.predict(
            core::makeLeaveOneOutProblem(pred_db, target_db, app));
        break;
      }
    }
    if (cache != nullptr)
        cache->store(key, predicted);
    return predicted;
}

void
appendObservedPairs(const TaskResult &task, std::vector<double> &actual,
                    std::vector<double> &predicted)
{
    DTRANK_ASSERT_MSG(task.actual.size() == task.predicted.size(),
                      "appendObservedPairs: ragged task");
    for (std::size_t i = 0; i < task.actual.size(); ++i) {
        if (!std::isfinite(task.actual[i]))
            continue;
        actual.push_back(task.actual[i]);
        predicted.push_back(task.predicted[i]);
    }
}

std::string
methodName(Method m)
{
    switch (m) {
      case Method::NnT:
        return "NN^T";
      case Method::MlpT:
        return "MLP^T";
      case Method::GaKnn:
        return "GA-10NN";
      case Method::SplT:
        return "SPL^T";
      case Method::MultiNnT:
        return "kNN^T";
      case Method::DeepT:
        return "DEEP^T";
    }
    DTRANK_ASSERT_MSG(false, "unknown method");
}

const std::vector<Method> &
allMethods()
{
    static const std::vector<Method> methods = {Method::NnT, Method::MlpT,
                                                Method::GaKnn};
    return methods;
}

const std::vector<Method> &
extendedMethods()
{
    static const std::vector<Method> methods = {
        Method::NnT,  Method::MultiNnT, Method::SplT,
        Method::MlpT, Method::DeepT,    Method::GaKnn};
    return methods;
}

SplitEvaluator::SplitEvaluator(const dataset::PerfDatabase &db,
                               linalg::Matrix characteristics,
                               MethodSuiteConfig config)
    : db_(db), characteristics_(std::move(characteristics)),
      config_(std::move(config))
{
    util::require(characteristics_.rows() == db_.benchmarkCount(),
                  "SplitEvaluator: characteristics must have one row per "
                  "benchmark");
    util::require(db_.benchmarkCount() >= 3,
                  "SplitEvaluator: needs >= 3 benchmarks");
}

SplitResults
SplitEvaluator::evaluateSplit(const std::vector<std::size_t> &predictive,
                              const std::vector<std::size_t> &target,
                              const std::vector<Method> &methods,
                              std::uint64_t split_tag) const
{
    util::require(!methods.empty(),
                  "SplitEvaluator::evaluateSplit: no methods requested");
    util::require(target.size() >= 2,
                  "SplitEvaluator::evaluateSplit: needs >= 2 target "
                  "machines for ranking metrics");

    obs::TraceSpan span("evaluate_split", "experiments");
    span.arg("split_tag", split_tag);
    span.arg("methods", static_cast<std::uint64_t>(methods.size()));
    harnessMetrics().splits.inc();

    const dataset::PerfDatabase pred_db = db_.selectMachines(predictive);
    const dataset::PerfDatabase target_db = db_.selectMachines(target);
    const std::size_t n_bench = db_.benchmarkCount();

    const bool want_gaknn =
        std::find(methods.begin(), methods.end(), Method::GaKnn) !=
        methods.end();

    // GA-kNN learns its characteristic weights once per split from the
    // machines available to the user (matching Hoste et al., who train
    // the GA across the benchmark suite on a set of training machines).
    // With a model cache the whole split model is served on a repeat
    // key; on a miss, the GA routes genome fitness lookups through the
    // cache too (elites are re-evaluated every generation, so even one
    // GA run registers hits).
    baseline::GaKnnModel gaknn_model(config_.gaKnn);
    if (want_gaknn) {
        obs::TraceSpan ga_span("gaknn_split_model", "experiments");
        ga_span.arg("split_tag", split_tag);
        TrainedModelCache *cache = config_.modelCache.get();
        if (cache != nullptr) {
            const util::HashKey model_key = gaKnnModelKey(
                config_.gaKnn, characteristics_, pred_db.scores());
            std::vector<double> blob;
            if (cache->lookup(model_key, blob) && blob.size() >= 2) {
                const double fitness = blob.back();
                blob.pop_back();
                gaknn_model.restore(std::move(blob), fitness);
            } else {
                CachedFitnessMemo memo(*cache, model_key);
                gaknn_model.train(characteristics_, pred_db.scores(),
                                  &memo,
                                  pred_db.masked() ? &pred_db.mask()
                                                   : nullptr);
                blob = gaknn_model.weights();
                blob.push_back(gaknn_model.trainingFitness());
                cache->store(model_key, std::move(blob));
            }
        } else {
            gaknn_model.train(characteristics_, pred_db.scores(), nullptr,
                              pred_db.masked() ? &pred_db.mask()
                                               : nullptr);
        }
    }

    // MLP^T trains split-wide first: every app's network in lane
    // groups over one shared matrix, with the same per-app seeds,
    // cache keys and bits as a per-app predictTask.
    std::vector<std::vector<double>> mlpt_predicted;
    if (std::find(methods.begin(), methods.end(), Method::MlpT) !=
        methods.end())
        mlpt_predicted =
            predictMlpTSplit(config_, pred_db, target_db, split_tag,
                             config_.modelCache.get());

    // One independent task per (method, held-out benchmark). Every
    // task writes into its pre-sized slot and derives any randomness
    // from (split_tag, app), so the parallel schedule cannot influence
    // the results: threads = N is bit-identical to threads = 1.
    std::vector<std::vector<TaskResult>> slots(
        methods.size(), std::vector<TaskResult>(n_bench));
    util::parallelFor(
        config_.parallel.threads, methods.size() * n_bench,
        [&](std::size_t t) {
            const std::size_t mi = t / n_bench;
            const std::size_t app = t % n_bench;
            slots[mi][app] =
                methods[mi] == Method::MlpT
                    ? taskResult(app, target_db,
                                 std::move(mlpt_predicted[app]))
                    : runTask(methods[mi], app, pred_db, target_db,
                              gaknn_model, split_tag);
        });

    SplitResults results;
    for (std::size_t mi = 0; mi < methods.size(); ++mi)
        results[methods[mi]] = std::move(slots[mi]);
    return results;
}

TaskResult
SplitEvaluator::runTask(Method method, std::size_t app,
                        const dataset::PerfDatabase &pred_db,
                        const dataset::PerfDatabase &target_db,
                        const baseline::GaKnnModel &gaknn_model,
                        std::uint64_t split_tag) const
{
    obs::TraceSpan span("split_task", "experiments");
    if (span.active()) { // skip the methodName string when disabled
        span.arg("method", methodName(method));
        span.arg("app", static_cast<std::uint64_t>(app));
    }
    return taskResult(app, target_db,
                      predictTask(method, config_, pred_db, target_db, app,
                                  taskMlpSeed(config_, split_tag, app),
                                  &gaknn_model, &characteristics_,
                                  config_.modelCache.get()));
}

TaskResult
SplitEvaluator::taskResult(std::size_t app,
                           const dataset::PerfDatabase &target_db,
                           std::vector<double> predicted) const
{
    harnessMetrics().tasks.inc();
    TaskResult task;
    task.benchmark = db_.benchmark(app).name;
    {
        const double *row = target_db.benchmarkScoresData(app);
        task.actual.assign(row, row + target_db.machineCount());
    }
    // On a ragged database the held-out target row carries NaN poison
    // in its unobserved cells, so the metrics compare only observed
    // (actual, predicted) pairs. Fewer than two observed cells cannot
    // rank machines; such a task keeps zeroed metrics.
    const std::uint64_t *row_valid = targetRowMask(target_db, app);
    if (row_valid == nullptr) {
        task.metrics = core::evaluatePrediction(task.actual, predicted);
    } else {
        std::vector<double> actual_obs;
        std::vector<double> predicted_obs;
        actual_obs.reserve(task.actual.size());
        predicted_obs.reserve(task.actual.size());
        for (std::size_t m = 0; m < task.actual.size(); ++m) {
            if (((row_valid[m / 64] >> (m % 64)) & 1u) == 0)
                continue;
            actual_obs.push_back(task.actual[m]);
            predicted_obs.push_back(predicted[m]);
        }
        if (actual_obs.size() >= 2)
            task.metrics =
                core::evaluatePrediction(actual_obs, predicted_obs);
    }
    task.predicted = std::move(predicted);
    return task;
}

} // namespace dtrank::experiments
