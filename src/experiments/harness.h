/**
 * @file
 * Shared experiment harness: evaluates the three methods of the paper
 * (NN^T, MLP^T, GA-kNN) on one predictive/target machine split with
 * benchmark-level leave-one-out cross-validation (Figure 5 of the
 * paper).
 */

#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baseline/ga_knn.h"
#include "core/linear_transposition.h"
#include "core/metrics.h"
#include "core/mlp_transposition.h"
#include "core/multi_transposition.h"
#include "core/spline_transposition.h"
#include "dataset/perf_database.h"
#include "experiments/model_cache.h"
#include "linalg/matrix.h"
#include "util/thread_pool.h"

namespace dtrank::experiments
{

/** The prediction methods the harness can evaluate. */
enum class Method
{
    NnT,     ///< Data transposition, best-fit linear regression.
    MlpT,    ///< Data transposition, multilayer perceptron.
    GaKnn,   ///< Prior art: GA-weighted kNN in workload space.
    SplT,    ///< Extension: best-fit spline transposition.
    MultiNnT, ///< Extension: multi-proxy linear transposition.
    DeepT    ///< Extension: deeper minibatch MLP transposition.
};

/** Paper-style method name ("NN^T", "MLP^T", "GA-10NN", ...). */
std::string methodName(Method m);

/** The paper's three methods, in its column order. */
const std::vector<Method> &allMethods();

/** The paper's methods plus the repository's extensions. */
const std::vector<Method> &extendedMethods();

/**
 * Default configuration of the DEEP^T extension: a deeper multilayer
 * perceptron (three 16-unit hidden layers, after the deep-net ranking
 * models of Cengiz et al.) trained with minibatches so the batched GEMM
 * engine carries the forward/backward passes.
 */
inline core::MlpTranspositionConfig
defaultDeepConfig()
{
    core::MlpTranspositionConfig cfg;
    cfg.mlp.hiddenLayers = {16, 16, 16};
    cfg.mlp.batchSize = 8;
    return cfg;
}

/** Configuration shared by every experiment protocol. */
struct MethodSuiteConfig
{
    core::LinearTranspositionConfig linear;
    core::MlpTranspositionConfig mlp;
    baseline::GaKnnConfig gaKnn;
    core::SplineTranspositionConfig spline;
    core::MultiTranspositionConfig multi;
    core::MlpTranspositionConfig deep = defaultDeepConfig();
    /**
     * Base seed for the MLP; each (split, benchmark) task derives its
     * own seed so results do not depend on evaluation order.
     */
    std::uint64_t mlpSeedBase = 1;
    /**
     * Worker threads for the (method, held-out benchmark) tasks of a
     * split and for the independent splits of the experiment
     * protocols. Per-task seeds make the results bit-identical at any
     * thread count.
     */
    util::ParallelConfig parallel;
    /**
     * Optional trained-model cache shared across splits and protocols
     * (null disables caching). Every cached artifact is keyed by a
     * content hash of its full training inputs (method, configuration,
     * matrix bytes, derived seed), so enabling the cache cannot change
     * any result at any thread count; it only skips repeated training.
     * Hit/miss/eviction counters are read via modelCache->stats().
     */
    std::shared_ptr<TrainedModelCache> modelCache;
};

/**
 * Task-derived MLP seed: stable regardless of evaluation order, shared
 * by the offline harness and the serving path (which uses split_tag 0).
 */
inline std::uint64_t
taskMlpSeed(const MethodSuiteConfig &config, std::uint64_t split_tag,
            std::size_t app)
{
    return config.mlpSeedBase + split_tag * 1000003ULL + app * 7919ULL;
}

/**
 * Cache key of one (method, held-out benchmark) prediction. Everything
 * the prediction depends on goes in: the method's hyperparameters (the
 * MLP's includes its task-derived seed; the other methods are
 * seed-free, so identical splits reappearing in another protocol hit),
 * the predictive and target score matrices, and the held-out row.
 * GA-kNN predictions are not cached (asserts).
 */
util::HashKey taskPredictionKey(Method method,
                                const MethodSuiteConfig &config,
                                const dataset::PerfDatabase &pred_db,
                                const dataset::PerfDatabase &target_db,
                                std::size_t app, std::uint64_t mlp_seed);

/**
 * Computes one (method, held-out benchmark) prediction over the target
 * machines: the shared core of SplitEvaluator's tasks and of the
 * dtrank_serve rank engine, so an online answer is bit-identical to
 * the offline evaluateSplit() entry by construction.
 *
 * @param gaknn_model Split-level GA-kNN model; required (with
 *        `characteristics`) only when `method` is GaKnn.
 * @param cache Optional prediction cache, keyed by taskPredictionKey()
 *        (ignored for GaKnn, whose per-task combine is cheap).
 */
std::vector<double>
predictTask(Method method, const MethodSuiteConfig &config,
            const dataset::PerfDatabase &pred_db,
            const dataset::PerfDatabase &target_db, std::size_t app,
            std::uint64_t mlp_seed,
            const baseline::GaKnnModel *gaknn_model,
            const linalg::Matrix *characteristics,
            TrainedModelCache *cache);

/** Outcome of one (method, application-of-interest) task on a split. */
struct TaskResult
{
    /** The application of interest (a held-out benchmark). */
    std::string benchmark;
    /** Accuracy metrics across the split's target machines. */
    core::PredictionMetrics metrics;
    /** Predicted application scores, one per target machine. */
    std::vector<double> predicted;
    /** Measured application scores, one per target machine. */
    std::vector<double> actual;
};

/** Per-method results of a whole split (one entry per benchmark). */
using SplitResults = std::map<Method, std::vector<TaskResult>>;

/**
 * Appends a task's (actual, predicted) pairs to pooled vectors,
 * skipping target cells whose actual score is unobserved (NaN under a
 * mask — observed scores are strictly positive, so finiteness is an
 * exact observedness test). Dense tasks append every pair in order,
 * which keeps pooled metrics bit-identical to pooling by hand.
 */
void appendObservedPairs(const TaskResult &task,
                         std::vector<double> &actual,
                         std::vector<double> &predicted);

/**
 * Evaluates methods on machine splits of one database.
 *
 * The evaluator owns the database plus the benchmark characteristics
 * matrix the GA-kNN baseline needs (rows aligned with the database's
 * benchmarks).
 */
class SplitEvaluator
{
  public:
    /**
     * @param db The full performance database.
     * @param characteristics Benchmark characteristics, one row per
     *        database benchmark (same order).
     * @param config Method hyperparameters.
     */
    SplitEvaluator(const dataset::PerfDatabase &db,
                   linalg::Matrix characteristics,
                   MethodSuiteConfig config = MethodSuiteConfig{});

    /**
     * Runs the requested methods on one predictive/target split with
     * leave-one-out over all benchmarks.
     *
     * Independent (method, held-out benchmark) tasks are distributed
     * over config().parallel workers; each task derives its own seed
     * and writes into a pre-sized result slot, so the outcome is
     * bit-identical to a serial run regardless of the thread count.
     * MLP^T runs first as one split-level step
     * (core::MlpTransposition::predictHeldOutApps: every app's
     * network trained in lane groups over one shared matrix), with
     * the seeds, cache keys and bits of a per-app predictTask.
     *
     * @param predictive Machine indices available to the user.
     * @param target Machine indices to rank (disjoint from predictive).
     * @param methods Which methods to run.
     * @param split_tag Disambiguates MLP seeds across splits.
     */
    SplitResults evaluateSplit(const std::vector<std::size_t> &predictive,
                               const std::vector<std::size_t> &target,
                               const std::vector<Method> &methods,
                               std::uint64_t split_tag = 0) const;

    const dataset::PerfDatabase &database() const { return db_; }
    const linalg::Matrix &characteristics() const
    {
        return characteristics_;
    }
    const MethodSuiteConfig &config() const { return config_; }

  private:
    /** Runs one (method, held-out benchmark) task of a split. */
    TaskResult runTask(Method method, std::size_t app,
                       const dataset::PerfDatabase &pred_db,
                       const dataset::PerfDatabase &target_db,
                       const baseline::GaKnnModel &gaknn_model,
                       std::uint64_t split_tag) const;

    /** A task's result from its predictions over the target machines. */
    TaskResult taskResult(std::size_t app,
                          const dataset::PerfDatabase &target_db,
                          std::vector<double> predicted) const;

    const dataset::PerfDatabase &db_;
    linalg::Matrix characteristics_;
    MethodSuiteConfig config_;
};

} // namespace dtrank::experiments

