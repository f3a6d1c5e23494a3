#include "experiments/harness.h"

#include <algorithm>
#include <cmath>

#include "core/transposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"

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
 * full database never has an empty row).
 *
 * @return true when `predicted` holds the fallback; false when the
 *         caller must train.
 */
bool
untrainedPrediction(const dataset::PerfDatabase &pred_db,
                    const dataset::PerfDatabase &target_db,
                    std::size_t app, std::vector<double> &predicted)
{
    if (!pred_db.masked() || pred_db.mask().observedInRow(app) != 0)
        return false;
    predicted = target_db.machineGeometricMeans();
    return true;
}

} // namespace

baseline::GaKnnModel
trainGaKnnSplitModel(const MethodSuiteConfig &config,
                     const linalg::Matrix &characteristics,
                     const dataset::PerfDatabase &pred_db)
{
    baseline::GaKnnModel model(config.gaKnn);
    model.train(characteristics, pred_db.scores(),
                pred_db.masked() ? &pred_db.mask() : nullptr);
    return model;
}

std::vector<double>
predictTask(Method method, const MethodSuiteConfig &config,
            const dataset::PerfDatabase &pred_db,
            const dataset::PerfDatabase &target_db, std::size_t app,
            std::uint64_t mlp_seed,
            const baseline::GaKnnModel *gaknn_model,
            const linalg::Matrix *characteristics, std::nullptr_t)
{
    std::vector<double> predicted;
    if (untrainedPrediction(pred_db, target_db, app, predicted))
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
    return std::move(
        evaluateSplits({{predictive, target, split_tag}}, methods)[0]);
}

std::vector<SplitResults>
SplitEvaluator::evaluateSplits(const std::vector<SplitSpec> &splits,
                               const std::vector<Method> &methods) const
{
    util::require(!methods.empty(),
                  "SplitEvaluator::evaluateSplit: no methods requested");
    for (const SplitSpec &split : splits)
        util::require(split.target.size() >= 2,
                      "SplitEvaluator::evaluateSplit: needs >= 2 target "
                      "machines for ranking metrics");

    obs::TraceSpan span("evaluate_splits", "experiments");
    span.arg("splits", static_cast<std::uint64_t>(splits.size()));
    span.arg("methods", static_cast<std::uint64_t>(methods.size()));
    harnessMetrics().splits.inc(splits.size());

    const auto wants = [&](Method m) {
        return std::find(methods.begin(), methods.end(), m) !=
               methods.end();
    };
    const bool want_gaknn = wants(Method::GaKnn);
    const bool want_mlpt = wants(Method::MlpT);
    const std::size_t n_bench = db_.benchmarkCount();
    const std::size_t threads = config_.parallel.threads;

    // A split's machine views are rebuilt by each task that reads
    // them (a copy of a few dozen KB, microseconds) rather than kept for
    // every split at once: the phases then hold the views of the
    // running tasks only, not of all splits.
    const auto pred_view = [&](std::size_t s) {
        return db_.selectMachines(splits[s].predictive);
    };
    const auto target_view = [&](std::size_t s) {
        return db_.selectMachines(splits[s].target);
    };

    /** One split's GA-kNN model and MLP^T work. */
    struct SplitState
    {
        baseline::GaKnnModel gaknn;
        /** MLP^T prediction per app (fallbacks first). */
        std::vector<std::vector<double>> mlpt{};
        /** The apps MLP^T must train, their seeds, plan and outputs. */
        std::vector<std::size_t> apps{};
        std::vector<std::uint64_t> seeds{};
        core::MlpTransposition::HeldOutPlan plan{};
        std::vector<std::vector<double>> trained{};
    };
    std::vector<SplitState> states(splits.size(),
                                   SplitState{baseline::GaKnnModel(
                                       config_.gaKnn)});
    for (std::size_t s = 0; s < splits.size() && want_mlpt; ++s) {
        // MLP^T trains split-wide: every app's network in lane groups
        // over one shared matrix per row block, with the fallback,
        // seeds and bits of a per-app predictTask.
        SplitState &st = states[s];
        const dataset::PerfDatabase pred_db = pred_view(s);
        const dataset::PerfDatabase target_db = target_view(s);
        st.mlpt.resize(n_bench);
        for (std::size_t app = 0; app < n_bench; ++app) {
            if (untrainedPrediction(pred_db, target_db, app, st.mlpt[app]))
                continue;
            st.apps.push_back(app);
            st.seeds.push_back(taskMlpSeed(config_, splits[s].tag, app));
        }
        st.plan = core::MlpTransposition::planHeldOutApps(
            pred_db, target_db, st.apps, st.seeds);
        st.trained.resize(st.apps.size());
    }

    // Phase A: all training as one task set. GA-kNN models come first
    // in index order; the pool's workers take their own newest tasks
    // first, so the long lane groups start first and the shorter GA
    // runs fill the end of the phase.
    constexpr std::size_t kGaKnnTask = static_cast<std::size_t>(-1);
    std::vector<std::pair<std::size_t, std::size_t>> train_tasks;
    if (want_gaknn)
        for (std::size_t s = 0; s < splits.size(); ++s)
            train_tasks.emplace_back(s, kGaKnnTask);
    for (std::size_t s = 0; s < splits.size(); ++s)
        for (std::size_t g = 0; g < states[s].plan.groups.size(); ++g)
            train_tasks.emplace_back(s, g);
    {
        obs::TraceSpan phase("split_phase_train", "experiments");
        phase.arg("tasks", static_cast<std::uint64_t>(train_tasks.size()));
        util::parallelFor(threads, train_tasks.size(), [&](std::size_t t) {
            const auto [s, group] = train_tasks[t];
            SplitState &st = states[s];
            if (group == kGaKnnTask) {
                // GA-kNN learns its characteristic weights once per
                // split from the machines available to the user
                // (matching Hoste et al., who train the GA across the
                // benchmark suite on a set of training machines).
                obs::TraceSpan ga_span("gaknn_split_model", "experiments");
                ga_span.arg("split_tag", splits[s].tag);
                st.gaknn = trainGaKnnSplitModel(config_, characteristics_,
                                                pred_view(s));
                return;
            }
            obs::TraceSpan lane_span("mlpt_lane_group", "experiments");
            lane_span.arg("split_tag", splits[s].tag);
            lane_span.arg("lanes", static_cast<std::uint64_t>(
                                       st.plan.groups[group].lanes.size()));
            core::MlpTransposition::trainHeldOutGroup(
                config_.mlp, pred_view(s), target_view(s), st.apps,
                st.seeds, st.plan, group, st.trained);
        });
    }
    for (SplitState &st : states)
        for (std::size_t i = 0; i < st.apps.size(); ++i)
            st.mlpt[st.apps[i]] = std::move(st.trained[i]);

    // Phase B: one independent task per (split, method, held-out
    // benchmark). Every task writes into its pre-sized slot and
    // derives any randomness from (split tag, app), so the parallel
    // schedule cannot influence the results: threads = N is
    // bit-identical to threads = 1.
    const std::size_t per_split = methods.size() * n_bench;
    std::vector<std::vector<TaskResult>> slots(
        splits.size() * methods.size(), std::vector<TaskResult>(n_bench));
    {
        obs::TraceSpan phase("split_phase_predict", "experiments");
        phase.arg("tasks",
                  static_cast<std::uint64_t>(splits.size() * per_split));
        util::parallelFor(
            threads, splits.size() * per_split, [&](std::size_t t) {
                const std::size_t s = t / per_split;
                const std::size_t mi = t % per_split / n_bench;
                const std::size_t app = t % n_bench;
                SplitState &st = states[s];
                const dataset::PerfDatabase target_db = target_view(s);
                slots[s * methods.size() + mi][app] =
                    methods[mi] == Method::MlpT
                        ? taskResult(app, target_db,
                                     std::move(st.mlpt[app]))
                        : runTask(methods[mi], app, pred_view(s),
                                  target_db, st.gaknn, splits[s].tag);
            });
    }

    std::vector<SplitResults> results(splits.size());
    for (std::size_t s = 0; s < splits.size(); ++s)
        for (std::size_t mi = 0; mi < methods.size(); ++mi)
            results[s][methods[mi]] =
                std::move(slots[s * methods.size() + mi]);
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
                                  &gaknn_model, &characteristics_));
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
