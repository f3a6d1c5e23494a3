/**
 * @file
 * Google-benchmark microbenchmarks of the computational kernels the
 * reproduction is built on: simple/multiple regression fits, Spearman
 * rank correlation, MLP training and prediction, GA-kNN distance
 * evaluation, k-medoids clustering, the full NN^T predictor, the
 * cache-blocked matrix kernels against a naive reference, and the
 * parallel split evaluator at several thread counts.
 *
 * Also benchmarks every SIMD kernel-table entry once per available
 * dispatch tier ("BM_Kernel<name>/scalar", ".../avx2", ".../avx512"),
 * so the per-kernel speedup of each vector tier can be read off one
 * report. The dispatch tier the rest of the process uses and the CPU
 * feature flags are recorded as report-level context.
 *
 * Pass --benchmark_format=json for machine-readable output, or
 * --json <path> to write the google-benchmark JSON report to a file
 * (shorthand for --benchmark_out=<path> --benchmark_out_format=json),
 * and --simd scalar|avx2|avx512 to pin the dispatch tier the
 * non-kernel benchmarks run at.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "baseline/ga_knn.h"
#include "core/linear_transposition.h"
#include "core/mlp_transposition.h"
#include "core/transposition.h"
#include "dataset/mica.h"
#include "dataset/synthetic_spec.h"
#include "experiments/harness.h"
#include "legacy_mlp.h"
#include "ml/kmedoids.h"
#include "ml/pca.h"
#include "ml/mlp.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "simd/simd.h"
#include "stats/bootstrap.h"
#include "stats/correlation.h"
#include "stats/kendall.h"
#include "stats/spline.h"
#include "stats/regression.h"
#include "util/rng.h"
#include "util/thread_pool.h"

using namespace dtrank;

namespace
{

std::vector<double>
randomVector(std::size_t n, util::Rng &rng)
{
    std::vector<double> v(n);
    for (double &x : v)
        x = rng.uniform(1.0, 100.0);
    return v;
}

const dataset::PerfDatabase &
paperDb()
{
    static const dataset::PerfDatabase db = dataset::makePaperDataset();
    return db;
}

core::TranspositionProblem
xeonProblem()
{
    const dataset::PerfDatabase &db = paperDb();
    const auto target = db.machineIndicesByFamily("Intel Xeon");
    std::vector<std::size_t> predictive;
    for (std::size_t m = 0; m < db.machineCount(); ++m)
        if (db.machine(m).family != "Intel Xeon")
            predictive.push_back(m);
    return core::makeProblemFromSplit(db, predictive, target,
                                      "libquantum");
}

void
BM_SimpleLinearRegression(benchmark::State &state)
{
    util::Rng rng(1);
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto x = randomVector(n, rng);
    const auto y = randomVector(n, rng);
    for (auto _ : state) {
        stats::SimpleLinearRegression fit(x, y);
        benchmark::DoNotOptimize(fit.slope());
    }
}
BENCHMARK(BM_SimpleLinearRegression)->Arg(28)->Arg(280);

void
BM_Spearman(benchmark::State &state)
{
    util::Rng rng(2);
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto x = randomVector(n, rng);
    const auto y = randomVector(n, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(stats::spearman(x, y));
    }
}
BENCHMARK(BM_Spearman)->Arg(39)->Arg(117);

void
BM_MultipleRegression(benchmark::State &state)
{
    util::Rng rng(3);
    const std::size_t rows = 100;
    const auto cols = static_cast<std::size_t>(state.range(0));
    linalg::Matrix x(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            x(r, c) = rng.uniform(0.0, 10.0);
    const auto y = randomVector(rows, rng);
    for (auto _ : state) {
        stats::MultipleLinearRegression fit(x, y);
        benchmark::DoNotOptimize(fit.rSquared());
    }
}
BENCHMARK(BM_MultipleRegression)->Arg(8)->Arg(28);

void
BM_MlpTrainEpochs(benchmark::State &state)
{
    util::Rng rng(4);
    const std::size_t rows = 100;
    const std::size_t cols = 28;
    linalg::Matrix x(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            x(r, c) = rng.uniform(1.0, 50.0);
    const auto y = randomVector(rows, rng);
    ml::MlpConfig config;
    config.epochs = static_cast<std::size_t>(state.range(0));
    ml::MlpWorkspace workspace;
    for (auto _ : state) {
        ml::Mlp net(config);
        net.fit(x, y, workspace);
        benchmark::DoNotOptimize(net.trainingMse());
    }
}
BENCHMARK(BM_MlpTrainEpochs)->Arg(10)->Arg(50);

/**
 * The PR 1 baseline the workspace engine is measured against:
 * bench/legacy_mlp.{h,cpp} carry the pre-workspace Mlp implementation
 * verbatim, compiled as its own translation unit exactly as it used to
 * be. Every sample of every epoch heap-allocates its input row, the
 * per-layer forward outputs and the per-layer delta vectors, and every
 * unit activation is an out-of-line call. Numerically identical to
 * Mlp::fit for the same seed at this benchmark's layer widths (the
 * canonical lane-blocked reduction degenerates to the legacy
 * sequential sum below 16 terms); only the memory and call behaviour
 * differ.
 */
void
BM_MlpTrainEpochsLegacy(benchmark::State &state)
{
    util::Rng rng(4);
    const std::size_t rows = 100;
    const std::size_t cols = 28;
    linalg::Matrix x(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            x(r, c) = rng.uniform(1.0, 50.0);
    const auto y = randomVector(rows, rng);
    bench_legacy::MlpConfig config;
    config.epochs = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        bench_legacy::Mlp net(config);
        net.fit(x, y);
        benchmark::DoNotOptimize(net.trainingMse());
    }
}
BENCHMARK(BM_MlpTrainEpochsLegacy)->Arg(10)->Arg(50);

/**
 * The GEMM-backed minibatch engine at the exact shape of
 * BM_MlpTrainEpochs (100 x 28, WEKA-automatic hidden layer) trained
 * full-batch: the forward pass is one whole-batch mlpBatchNets call
 * per layer, the gradient sums one mlpGradAccum call, and the
 * momentum/weight read-modify-write traffic is paid once per epoch
 * instead of once per sample. The speedup of the minibatch
 * formulation is BM_MlpTrainEpochs / BM_MlpTrainEpochsMinibatch at the
 * same Arg (a different deterministic trajectory than per-sample SGD,
 * so the comparison is throughput, not bit-identity).
 */
void
BM_MlpTrainEpochsMinibatch(benchmark::State &state)
{
    util::Rng rng(4);
    const std::size_t rows = 100;
    const std::size_t cols = 28;
    linalg::Matrix x(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            x(r, c) = rng.uniform(1.0, 50.0);
    const auto y = randomVector(rows, rng);
    ml::MlpConfig config;
    config.epochs = static_cast<std::size_t>(state.range(0));
    config.batchSize = 0; // full batch
    ml::MlpWorkspace workspace;
    for (auto _ : state) {
        ml::Mlp net(config);
        net.fit(x, y, workspace);
        benchmark::DoNotOptimize(net.trainingMse());
    }
}
BENCHMARK(BM_MlpTrainEpochsMinibatch)->Arg(10)->Arg(50);

void
BM_MlpPredict(benchmark::State &state)
{
    util::Rng rng(5);
    const std::size_t rows = 50;
    const std::size_t cols = 28;
    linalg::Matrix x(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            x(r, c) = rng.uniform(1.0, 50.0);
    const auto y = randomVector(rows, rng);
    ml::MlpConfig config;
    config.epochs = 20;
    ml::Mlp net(config);
    net.fit(x, y);
    const auto query = randomVector(cols, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(net.predict(query));
    }
}
BENCHMARK(BM_MlpPredict);

void
BM_LinearTransposition(benchmark::State &state)
{
    const core::TranspositionProblem problem = xeonProblem();
    for (auto _ : state) {
        core::LinearTransposition predictor;
        benchmark::DoNotOptimize(predictor.predict(problem));
    }
}
BENCHMARK(BM_LinearTransposition);

void
BM_GaKnnTraining(benchmark::State &state)
{
    const dataset::PerfDatabase &db = paperDb();
    const linalg::Matrix chars =
        dataset::MicaGenerator().generateForCatalog();
    baseline::GaKnnConfig config;
    config.ga.populationSize = 20;
    config.ga.generations =
        static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        baseline::GaKnnModel model(config);
        model.train(chars, db.scores());
        benchmark::DoNotOptimize(model.trainingFitness());
    }
}
BENCHMARK(BM_GaKnnTraining)->Arg(2)->Arg(5);

void
BM_KMedoids(benchmark::State &state)
{
    const dataset::PerfDatabase &db = paperDb();
    std::vector<std::size_t> machines(db.machineCount());
    for (std::size_t m = 0; m < machines.size(); ++m)
        machines[m] = m;
    std::vector<std::vector<double>> points;
    for (std::size_t m = 0; m < machines.size(); ++m)
        points.push_back(db.machineScores(m));
    const ml::EuclideanDistance metric;
    const ml::KMedoids clusterer;
    for (auto _ : state) {
        util::Rng rng(7);
        benchmark::DoNotOptimize(
            clusterer.cluster(points,
                              static_cast<std::size_t>(state.range(0)),
                              metric, rng));
    }
}
BENCHMARK(BM_KMedoids)->Arg(4)->Arg(10);

void
BM_SplineFit(benchmark::State &state)
{
    util::Rng rng(8);
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto x = randomVector(n, rng);
    const auto y = randomVector(n, rng);
    for (auto _ : state) {
        stats::SplineRegression fit(x, y, 4);
        benchmark::DoNotOptimize(fit.rSquared());
    }
}
BENCHMARK(BM_SplineFit)->Arg(28)->Arg(280);

void
BM_KendallTau(benchmark::State &state)
{
    util::Rng rng(9);
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto x = randomVector(n, rng);
    const auto y = randomVector(n, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(stats::kendallTau(x, y));
    }
}
BENCHMARK(BM_KendallTau)->Arg(39)->Arg(117);

void
BM_BootstrapSpearman(benchmark::State &state)
{
    util::Rng rng(10);
    const auto x = randomVector(100, rng);
    const auto y = randomVector(100, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            stats::bootstrapSpearman(x, y, 0.95,
                                     static_cast<std::size_t>(
                                         state.range(0))));
    }
}
BENCHMARK(BM_BootstrapSpearman)->Arg(100)->Arg(1000);

void
BM_PcaFit(benchmark::State &state)
{
    util::Rng rng(11);
    const auto dims = static_cast<std::size_t>(state.range(0));
    linalg::Matrix x(117, dims);
    for (std::size_t r = 0; r < x.rows(); ++r)
        for (std::size_t c = 0; c < dims; ++c)
            x(r, c) = rng.uniform(0.0, 10.0);
    for (auto _ : state) {
        ml::Pca pca{};
        pca.fit(x);
        benchmark::DoNotOptimize(pca.explainedVariance());
    }
}
BENCHMARK(BM_PcaFit)->Arg(12)->Arg(29);

void
BM_SyntheticDatasetGeneration(benchmark::State &state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(dataset::makePaperDataset(42));
    }
}
BENCHMARK(BM_SyntheticDatasetGeneration);

linalg::Matrix
randomMatrix(std::size_t rows, std::size_t cols, util::Rng &rng)
{
    linalg::Matrix m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            m(r, c) = rng.uniform(-1.0, 1.0);
    return m;
}

/** Textbook i/j/k multiply — the baseline the blocked kernel replaced. */
linalg::Matrix
naiveMultiply(const linalg::Matrix &a, const linalg::Matrix &b)
{
    linalg::Matrix out(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < b.cols(); ++j) {
            double sum = 0.0;
            for (std::size_t k = 0; k < a.cols(); ++k)
                sum += a(i, k) * b(k, j);
            out(i, j) = sum;
        }
    return out;
}

void
BM_MatrixMultiplyNaive(benchmark::State &state)
{
    util::Rng rng(12);
    const auto n = static_cast<std::size_t>(state.range(0));
    const linalg::Matrix a = randomMatrix(n, n, rng);
    const linalg::Matrix b = randomMatrix(n, n, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(naiveMultiply(a, b));
    }
}
BENCHMARK(BM_MatrixMultiplyNaive)->Arg(64)->Arg(256);

void
BM_MatrixMultiplyBlocked(benchmark::State &state)
{
    util::Rng rng(12);
    const auto n = static_cast<std::size_t>(state.range(0));
    const linalg::Matrix a = randomMatrix(n, n, rng);
    const linalg::Matrix b = randomMatrix(n, n, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(a.multiply(b));
    }
}
BENCHMARK(BM_MatrixMultiplyBlocked)->Arg(64)->Arg(256);

void
BM_MatrixMultiplyTransposed(benchmark::State &state)
{
    util::Rng rng(13);
    const auto n = static_cast<std::size_t>(state.range(0));
    const linalg::Matrix a = randomMatrix(n, n, rng);
    const linalg::Matrix b = randomMatrix(n, n, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(a.multiplyTransposed(b));
    }
}
BENCHMARK(BM_MatrixMultiplyTransposed)->Arg(64)->Arg(256);

/**
 * One family-CV split through the full method suite; Arg is the worker
 * thread count (1 = serial), so the parallel speedup can be read off a
 * single JSON report.
 */
void
BM_EvaluateSplit(benchmark::State &state)
{
    const dataset::PerfDatabase &db = paperDb();
    const linalg::Matrix chars =
        dataset::MicaGenerator().generateForCatalog();
    experiments::MethodSuiteConfig config;
    config.mlp.mlp.epochs = 30;
    config.gaKnn.ga.populationSize = 10;
    config.gaKnn.ga.generations = 3;
    config.parallel.threads = static_cast<std::size_t>(state.range(0));
    const experiments::SplitEvaluator evaluator(db, chars, config);

    const auto target = db.machineIndicesByFamily("Intel Xeon");
    std::vector<std::size_t> predictive;
    for (std::size_t m = 0; m < db.machineCount(); ++m)
        if (db.machine(m).family != "Intel Xeon")
            predictive.push_back(m);

    for (auto _ : state) {
        benchmark::DoNotOptimize(evaluator.evaluateSplit(
            predictive, target, experiments::extendedMethods()));
    }
}
BENCHMARK(BM_EvaluateSplit)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

/**
 * The same split with the trained-model cache installed. The cache
 * persists across iterations, so after the first (miss-dominated)
 * iteration the loop measures the hit path; hit/miss totals are
 * reported as counters.
 */
void
BM_EvaluateSplitCached(benchmark::State &state)
{
    const dataset::PerfDatabase &db = paperDb();
    const linalg::Matrix chars =
        dataset::MicaGenerator().generateForCatalog();
    experiments::MethodSuiteConfig config;
    config.mlp.mlp.epochs = 30;
    config.gaKnn.ga.populationSize = 10;
    config.gaKnn.ga.generations = 3;
    config.parallel.threads = static_cast<std::size_t>(state.range(0));
    config.modelCache =
        std::make_shared<experiments::TrainedModelCache>();
    const experiments::SplitEvaluator evaluator(db, chars, config);

    const auto target = db.machineIndicesByFamily("Intel Xeon");
    std::vector<std::size_t> predictive;
    for (std::size_t m = 0; m < db.machineCount(); ++m)
        if (db.machine(m).family != "Intel Xeon")
            predictive.push_back(m);

    for (auto _ : state) {
        benchmark::DoNotOptimize(evaluator.evaluateSplit(
            predictive, target, experiments::extendedMethods()));
    }
    const auto stats = config.modelCache->stats();
    state.counters["cache_hits"] =
        static_cast<double>(stats.hits);
    state.counters["cache_misses"] =
        static_cast<double>(stats.misses);
}
BENCHMARK(BM_EvaluateSplitCached)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Observability primitives: the per-event cost instrumented code pays.
// The acceptance bar is that instrumentation stays in the noise of the
// protocol benches; these pin the primitive costs directly.

void
BM_ObsCounterInc(benchmark::State &state)
{
    obs::Counter &counter = obs::MetricsRegistry::global().counter(
        "dtrank_bench_obs_counter_total");
    for (auto _ : state) {
        counter.inc();
    }
    benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_ObsCounterInc);

void
BM_ObsHistogramObserve(benchmark::State &state)
{
    obs::Histogram &hist = obs::MetricsRegistry::global().histogram(
        "dtrank_bench_obs_seconds", obs::defaultLatencyBounds());
    double v = 1e-7;
    for (auto _ : state) {
        hist.observe(v);
        v = v < 1.0 ? v * 1.7 : 1e-7;
    }
    benchmark::DoNotOptimize(hist.count());
}
BENCHMARK(BM_ObsHistogramObserve);

/** A span when tracing is off: one relaxed load, no allocation. */
void
BM_ObsSpanDisabled(benchmark::State &state)
{
    obs::TraceCollector::global().disable();
    for (auto _ : state) {
        obs::TraceSpan span("bench_span", "bench");
        benchmark::DoNotOptimize(span.active());
    }
}
BENCHMARK(BM_ObsSpanDisabled);

/** The full span lifecycle with the collector recording. */
void
BM_ObsSpanEnabled(benchmark::State &state)
{
    obs::TraceCollector &collector = obs::TraceCollector::global();
    collector.enable();
    for (auto _ : state) {
        obs::TraceSpan span("bench_span", "bench");
        benchmark::DoNotOptimize(span.active());
    }
    collector.disable();
    collector.clear();
}
BENCHMARK(BM_ObsSpanEnabled);

/**
 * Work-stealing scheduler under a deliberately unbalanced load: every
 * 8th task is two orders of magnitude bigger, so the round-robin deal
 * drains most deques early and the steady state exercises the steal
 * path. Arg is the worker count; compare against Arg(1) for the
 * scheduling overhead and scaling.
 */
void
BM_ThreadPoolUnbalanced(benchmark::State &state)
{
    const auto workers = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        util::ThreadPool pool(workers);
        util::TaskGroup group(pool);
        for (std::size_t i = 0; i < 256; ++i)
            group.run([i] {
                volatile double sink = 0.0;
                const int spins = i % 8 == 0 ? 20000 : 200;
                for (int s = 0; s < spins; ++s)
                    sink = sink + 1.0;
            });
        group.wait();
    }
}
BENCHMARK(BM_ThreadPoolUnbalanced)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Per-kernel tier benchmarks: each operates directly on one kernel
// table (scalar, avx2 or avx512), bypassing dispatch, so the
// registrations of a kernel differ only in the code executed. A vector
// tier's variants are registered at startup only when the tier is
// compiled in and the CPU reports the feature.

/** Kernel table per tier index: 0 scalar, 1 avx2, 2 avx512. */
const simd::KernelTable &
kernelTable(int tier)
{
    if (tier == 2)
        return *simd::avx512Kernels();
    if (tier == 1)
        return *simd::avx2Kernels();
    return simd::scalarKernels();
}

void
BM_KernelDot(benchmark::State &state, int tier)
{
    util::Rng rng(20);
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto a = randomVector(n, rng);
    const auto b = randomVector(n, rng);
    const simd::KernelTable &kt = kernelTable(tier);
    for (auto _ : state) {
        benchmark::DoNotOptimize(kt.dot(a.data(), b.data(), n));
    }
}

void
BM_KernelAxpy(benchmark::State &state, int tier)
{
    util::Rng rng(21);
    const auto n = static_cast<std::size_t>(state.range(0));
    auto out = randomVector(n, rng);
    const auto b = randomVector(n, rng);
    const simd::KernelTable &kt = kernelTable(tier);
    for (auto _ : state) {
        kt.axpy(out.data(), b.data(), 1.0000001, n);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
}

void
BM_KernelSquaredDistance(benchmark::State &state, int tier)
{
    util::Rng rng(22);
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto a = randomVector(n, rng);
    const auto b = randomVector(n, rng);
    const simd::KernelTable &kt = kernelTable(tier);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            kt.squaredDistance(a.data(), b.data(), n));
    }
}

void
BM_KernelGemmMicro(benchmark::State &state, int tier)
{
    util::Rng rng(23);
    const auto n = static_cast<std::size_t>(state.range(0));
    const linalg::Matrix a = randomMatrix(1, n, rng);
    const linalg::Matrix b = randomMatrix(n, n, rng);
    linalg::Matrix out(1, n);
    const simd::KernelTable &kt = kernelTable(tier);
    for (auto _ : state) {
        kt.gemmMicro(n, n, a.rowData(0), b.rowData(0), n,
                     out.rowData(0));
        benchmark::DoNotOptimize(out.rowData(0));
        benchmark::ClobberMemory();
    }
}

void
BM_KernelMlpForward(benchmark::State &state, int tier)
{
    util::Rng rng(24);
    const auto width = static_cast<std::size_t>(state.range(0));
    const auto wt = randomVector(width * width, rng);
    const auto bias = randomVector(width, rng);
    const auto a_in = randomVector(width, rng);
    std::vector<double> a_out(width, 0.0);
    const simd::KernelTable &kt = kernelTable(tier);
    for (auto _ : state) {
        kt.mlpLayerNets(width, width, wt.data(), bias.data(),
                        a_in.data(), a_out.data());
        benchmark::DoNotOptimize(a_out.data());
        benchmark::ClobberMemory();
    }
}

void
BM_KernelMlpUpdate(benchmark::State &state, int tier)
{
    util::Rng rng(25);
    const auto width = static_cast<std::size_t>(state.range(0));
    const auto in_act = randomVector(width, rng);
    auto d = randomVector(width, rng);
    auto wt = randomVector(width * width, rng);
    std::vector<double> pwt(width * width, 0.0);
    auto bias = randomVector(width, rng);
    std::vector<double> pb(width, 0.0);
    const simd::KernelTable &kt = kernelTable(tier);
    for (auto _ : state) {
        kt.mlpUpdateLayer(width, width, 1e-9, 0.2, in_act.data(),
                          d.data(), wt.data(), pwt.data(), bias.data(),
                          pb.data());
        benchmark::DoNotOptimize(wt.data());
        benchmark::ClobberMemory();
    }
}

/** The column-major canonical-dot GEMM the batched MLP^T predict runs
 *  on, at the paper-scale hidden-layer shape: m target machines (the
 *  range argument) x 14 units x 28 benchmark features. */
void
BM_KernelGemmDotColumns(benchmark::State &state, int tier)
{
    util::Rng rng(26);
    const auto m = static_cast<std::size_t>(state.range(0));
    const std::size_t n = 14;
    const std::size_t k = 28;
    const linalg::Matrix at = randomMatrix(k, m, rng);
    const linalg::Matrix b = randomMatrix(n, k, rng);
    const auto bias = randomVector(n, rng);
    linalg::Matrix out(n, m);
    const simd::KernelTable &kt = kernelTable(tier);
    for (auto _ : state) {
        simd::gemmDotColumns(kt, m, n, k, at.rowData(0), m, b.rowData(0),
                             k, bias.data(), out.rowData(0), m);
        benchmark::DoNotOptimize(out.rowData(0));
        benchmark::ClobberMemory();
    }
}

/** The whole-minibatch layer forward at the paper-scale L1 shape
 *  (bn x out x in = 100 x width/2 x width). */
void
BM_KernelBatchNets(benchmark::State &state, int tier)
{
    util::Rng rng(27);
    const std::size_t bn = 100;
    const auto in = static_cast<std::size_t>(state.range(0));
    const std::size_t out = in / 2;
    const auto a = randomVector(bn * in, rng);
    const auto wt = randomVector(in * out, rng);
    const auto bias = randomVector(out, rng);
    std::vector<double> nets(bn * out, 0.0);
    const simd::KernelTable &kt = kernelTable(tier);
    for (auto _ : state) {
        kt.mlpBatchNets(bn, in, out, a.data(), in, wt.data(),
                        bias.data(), nets.data(), out);
        benchmark::DoNotOptimize(nets.data());
        benchmark::ClobberMemory();
    }
}

/** The whole-minibatch gradient accumulation at the matching shape. */
void
BM_KernelGradAccum(benchmark::State &state, int tier)
{
    util::Rng rng(28);
    const std::size_t bn = 100;
    const auto in = static_cast<std::size_t>(state.range(0));
    const std::size_t out = in / 2;
    const auto d = randomVector(bn * out, rng);
    const auto a = randomVector(bn * in, rng);
    std::vector<double> gw(out * in, 0.0);
    const simd::KernelTable &kt = kernelTable(tier);
    for (auto _ : state) {
        kt.mlpGradAccum(bn, out, in, d.data(), out, a.data(), in,
                        gw.data());
        benchmark::DoNotOptimize(gw.data());
        benchmark::ClobberMemory();
    }
}

/**
 * Registers one kernel benchmark under "BM_<name>/<tier>" for the
 * scalar tier and every available vector tier.
 */
void
registerKernelBenchmark(const char *name,
                        void (*fn)(benchmark::State &, int),
                        std::initializer_list<long> args)
{
    static const char *const tier_names[] = {"scalar", "avx2",
                                             "avx512"};
    for (int tier = 0; tier < 3; ++tier) {
        if (tier == 1 && (simd::avx2Kernels() == nullptr ||
                          !simd::cpuSupportsAvx2()))
            continue;
        if (tier == 2 && (simd::avx512Kernels() == nullptr ||
                          !simd::cpuSupportsAvx512()))
            continue;
        auto *bench = benchmark::RegisterBenchmark(
            (std::string(name) + "/" + tier_names[tier]).c_str(), fn,
            tier);
        for (long arg : args)
            bench->Arg(arg);
    }
}

void
registerKernelBenchmarks()
{
    registerKernelBenchmark("BM_KernelDot", BM_KernelDot, {256, 1024});
    registerKernelBenchmark("BM_KernelAxpy", BM_KernelAxpy, {256, 1024});
    registerKernelBenchmark("BM_KernelSquaredDistance",
                            BM_KernelSquaredDistance, {256, 1024});
    registerKernelBenchmark("BM_KernelGemmMicro", BM_KernelGemmMicro,
                            {64, 256});
    registerKernelBenchmark("BM_KernelGemmDotColumns",
                            BM_KernelGemmDotColumns, {256, 20000});
    // MLP layer widths stay L2-resident (128^2 weights = 128 KiB):
    // beyond that both tiers are bandwidth-bound and the comparison
    // stops measuring the kernels.
    registerKernelBenchmark("BM_KernelMlpForward", BM_KernelMlpForward,
                            {64, 128});
    registerKernelBenchmark("BM_KernelMlpUpdate", BM_KernelMlpUpdate,
                            {64, 128});
    // Paper-scale minibatch shapes: 28 is the MICA feature width, 128
    // a comfortably wider layer that still stays cache-resident.
    registerKernelBenchmark("BM_KernelBatchNets", BM_KernelBatchNets,
                            {28, 128});
    registerKernelBenchmark("BM_KernelGradAccum", BM_KernelGradAccum,
                            {28, 128});
}

} // namespace

int
main(int argc, char **argv)
{
    // Translate --json <path> (the flag every dtrank bench binary
    // understands) into google-benchmark's file-output flags, and
    // apply --simd <tier> to the process-wide dispatch before any
    // benchmark runs.
    std::vector<std::string> args;
    args.reserve(static_cast<std::size_t>(argc) + 1);
    args.emplace_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            args.push_back(std::string("--benchmark_out=") + argv[++i]);
            args.emplace_back("--benchmark_out_format=json");
        } else if (arg.rfind("--json=", 0) == 0) {
            args.push_back("--benchmark_out=" + arg.substr(7));
            args.emplace_back("--benchmark_out_format=json");
        } else if (arg == "--simd" && i + 1 < argc) {
            simd::requestTier(simd::parseTier(argv[++i]));
        } else if (arg.rfind("--simd=", 0) == 0) {
            simd::requestTier(simd::parseTier(arg.substr(7)));
        } else {
            args.push_back(arg);
        }
    }
    std::vector<char *> argv2;
    argv2.reserve(args.size());
    for (std::string &a : args)
        argv2.push_back(a.data());
    int argc2 = static_cast<int>(argv2.size());

    registerKernelBenchmarks();
    benchmark::Initialize(&argc2, argv2.data());
    if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data()))
        return 1;
    benchmark::AddCustomContext("simd_tier",
                                simd::tierName(simd::activeTier()));
    benchmark::AddCustomContext("cpu_features", simd::cpuFeatureString());
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
