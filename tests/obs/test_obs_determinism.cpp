/**
 * @file
 * The observability determinism contract: with tracing enabled and
 * metrics accumulating, every protocol result is bit-identical to a
 * run with observability off, at any thread count — spans and counters
 * only observe the computation, they never feed back into it.
 */

#include <gtest/gtest.h>

#include "dataset/mica.h"
#include "dataset/synthetic_spec.h"
#include "experiments/family_cv.h"
#include "experiments/harness.h"
#include "obs/trace.h"

namespace
{

using namespace dtrank;
using experiments::Method;

experiments::MethodSuiteConfig
fastSuite(std::size_t threads)
{
    experiments::MethodSuiteConfig config;
    config.mlp.mlp.epochs = 20;
    config.gaKnn.ga.populationSize = 10;
    config.gaKnn.ga.generations = 4;
    config.parallel.threads = threads;
    return config;
}

struct Fixture
{
    dataset::PerfDatabase db = dataset::makePaperDataset();
    linalg::Matrix chars = dataset::MicaGenerator().generateForCatalog();
};

/** Runs one split with the global trace collector in `traced` state. */
experiments::SplitResults
runSplit(const Fixture &f, std::size_t threads, bool traced)
{
    if (traced)
        obs::TraceCollector::global().enable();
    else
        obs::TraceCollector::global().disable();
    const experiments::SplitEvaluator evaluator(f.db, f.chars,
                                                fastSuite(threads));
    std::vector<std::size_t> predictive;
    for (std::size_t m = 0; m < 12; ++m)
        predictive.push_back(m);
    const std::vector<std::size_t> target = {30, 31, 32, 33};
    auto results = evaluator.evaluateSplit(
        predictive, target, experiments::extendedMethods(), 5);
    obs::TraceCollector::global().disable();
    obs::TraceCollector::global().clear();
    return results;
}

void
expectIdentical(const experiments::SplitResults &off,
                const experiments::SplitResults &on)
{
    ASSERT_EQ(off.size(), on.size());
    for (const auto &[method, off_tasks] : off) {
        SCOPED_TRACE(experiments::methodName(method));
        const auto it = on.find(method);
        ASSERT_NE(it, on.end());
        const auto &on_tasks = it->second;
        ASSERT_EQ(off_tasks.size(), on_tasks.size());
        for (std::size_t i = 0; i < off_tasks.size(); ++i) {
            const experiments::TaskResult &a = off_tasks[i];
            const experiments::TaskResult &b = on_tasks[i];
            EXPECT_EQ(a.benchmark, b.benchmark);
            // Bit-identical, not approximately equal: observability
            // must be a pure observer of the computation.
            EXPECT_EQ(a.predicted, b.predicted);
            EXPECT_EQ(a.actual, b.actual);
            EXPECT_EQ(a.metrics.rankCorrelation,
                      b.metrics.rankCorrelation);
            EXPECT_EQ(a.metrics.top1ErrorPercent,
                      b.metrics.top1ErrorPercent);
            EXPECT_EQ(a.metrics.meanErrorPercent,
                      b.metrics.meanErrorPercent);
            EXPECT_EQ(a.metrics.maxErrorPercent,
                      b.metrics.maxErrorPercent);
        }
    }
}

TEST(ObsDeterminism, TracedSplitMatchesUntracedSerial)
{
    Fixture f;
    expectIdentical(runSplit(f, 1, false), runSplit(f, 1, true));
}

TEST(ObsDeterminism, TracedSplitMatchesUntracedParallel)
{
    Fixture f;
    expectIdentical(runSplit(f, 4, false), runSplit(f, 4, true));
}

TEST(ObsDeterminism, TracedParallelMatchesUntracedSerial)
{
    Fixture f;
    expectIdentical(runSplit(f, 1, false), runSplit(f, 4, true));
}

TEST(ObsDeterminism, FamilyCvMatchesWithTracingOn)
{
    Fixture f;
    const std::vector<Method> methods = {Method::NnT, Method::MlpT};

    obs::TraceCollector::global().disable();
    const experiments::SplitEvaluator off_eval(f.db, f.chars,
                                               fastSuite(2));
    const auto off = experiments::FamilyCrossValidation(off_eval)
                         .run(methods);

    obs::TraceCollector::global().enable();
    const experiments::SplitEvaluator on_eval(f.db, f.chars,
                                              fastSuite(2));
    const auto on =
        experiments::FamilyCrossValidation(on_eval).run(methods);
    obs::TraceCollector::global().disable();
    // Tracing was live through a full protocol: spans must have been
    // captured, and the results must still match bit for bit.
    EXPECT_GT(obs::TraceCollector::global().snapshot().size(), 0u);
    obs::TraceCollector::global().clear();

    ASSERT_EQ(off.families, on.families);
    ASSERT_EQ(off.cells.size(), on.cells.size());
    for (const auto &[method, cells] : off.cells) {
        const auto &other = on.cells.at(method);
        ASSERT_EQ(cells.size(), other.size());
        for (std::size_t i = 0; i < cells.size(); ++i) {
            EXPECT_EQ(cells[i].family, other[i].family);
            EXPECT_EQ(cells[i].task.benchmark, other[i].task.benchmark);
            EXPECT_EQ(cells[i].task.predicted, other[i].task.predicted);
            EXPECT_EQ(cells[i].task.actual, other[i].task.actual);
        }
    }
}

} // namespace
