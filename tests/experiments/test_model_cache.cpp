/**
 * @file
 * Tests for the cross-protocol trained-model cache: hit/miss/eviction
 * accounting, FIFO eviction under a small capacity, and the central
 * guarantee that enabling the cache changes no result bit at any
 * thread count.
 */

#include <gtest/gtest.h>

#include "dataset/mica.h"
#include "dataset/synthetic_spec.h"
#include "experiments/harness.h"
#include "experiments/model_cache.h"
#include "util/hash.h"

namespace
{

using namespace dtrank;
using experiments::Method;
using experiments::TrainedModelCache;

util::HashKey
keyOf(std::uint64_t i)
{
    return util::ContentHasher().add(i).key();
}

TEST(TrainedModelCache, LookupStoreAndStats)
{
    TrainedModelCache cache;
    std::vector<double> value;

    EXPECT_FALSE(cache.lookup(keyOf(1), value));
    cache.store(keyOf(1), {1.5, 2.5});
    ASSERT_TRUE(cache.lookup(keyOf(1), value));
    EXPECT_EQ(value, (std::vector<double>{1.5, 2.5}));
    EXPECT_FALSE(cache.lookup(keyOf(2), value));

    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(TrainedModelCache, ClearKeepsCounters)
{
    TrainedModelCache cache;
    std::vector<double> value;
    cache.store(keyOf(1), {1.0});
    ASSERT_TRUE(cache.lookup(keyOf(1), value));
    cache.clear();
    EXPECT_FALSE(cache.lookup(keyOf(1), value));
    const auto stats = cache.stats();
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
}

TEST(TrainedModelCache, EvictsFifoUnderSmallCapacity)
{
    // Capacity 16 resolves to one entry per shard; inserting many
    // distinct keys must evict and keep the resident count bounded
    // while the evicted keys simply re-miss (never wrong values).
    TrainedModelCache cache(16);
    EXPECT_EQ(cache.capacity(), 16u);
    for (std::uint64_t i = 0; i < 200; ++i)
        cache.store(keyOf(i), {static_cast<double>(i)});

    const auto stats = cache.stats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LE(stats.entries, 16u);
    EXPECT_EQ(stats.entries + stats.evictions, 200u);

    // Whatever is still resident must hold its own value.
    std::vector<double> value;
    std::size_t resident = 0;
    for (std::uint64_t i = 0; i < 200; ++i) {
        if (cache.lookup(keyOf(i), value)) {
            ++resident;
            EXPECT_EQ(value,
                      (std::vector<double>{static_cast<double>(i)}));
        }
    }
    EXPECT_EQ(resident, stats.entries);
}

TEST(TrainedModelCache, StoreIsFirstWriterWins)
{
    // Two workers can race to compute the same pure value; the second
    // store must not disturb the resident entry.
    TrainedModelCache cache;
    cache.store(keyOf(7), {1.0});
    cache.store(keyOf(7), {1.0});
    std::vector<double> value;
    ASSERT_TRUE(cache.lookup(keyOf(7), value));
    EXPECT_EQ(value, (std::vector<double>{1.0}));
    EXPECT_EQ(cache.stats().entries, 1u);
}

// ---------------------------------------------------------------------
// Cache on/off bit-identity across the full method suite.
// ---------------------------------------------------------------------

experiments::MethodSuiteConfig
fastSuite(std::size_t threads,
          std::shared_ptr<TrainedModelCache> cache = nullptr)
{
    experiments::MethodSuiteConfig config;
    config.mlp.mlp.epochs = 20;
    config.gaKnn.ga.populationSize = 10;
    config.gaKnn.ga.generations = 4;
    config.parallel.threads = threads;
    config.modelCache = std::move(cache);
    return config;
}

/** Exact, field-by-field comparison of two split evaluations. */
void
expectIdentical(const experiments::SplitResults &a,
                const experiments::SplitResults &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (const auto &[method, a_tasks] : a) {
        SCOPED_TRACE(experiments::methodName(method));
        const auto it = b.find(method);
        ASSERT_NE(it, b.end());
        const auto &b_tasks = it->second;
        ASSERT_EQ(a_tasks.size(), b_tasks.size());
        for (std::size_t i = 0; i < a_tasks.size(); ++i) {
            const experiments::TaskResult &s = a_tasks[i];
            const experiments::TaskResult &p = b_tasks[i];
            EXPECT_EQ(s.benchmark, p.benchmark);
            EXPECT_EQ(s.predicted, p.predicted);
            EXPECT_EQ(s.actual, p.actual);
            EXPECT_EQ(s.metrics.rankCorrelation,
                      p.metrics.rankCorrelation);
            EXPECT_EQ(s.metrics.top1ErrorPercent,
                      p.metrics.top1ErrorPercent);
            EXPECT_EQ(s.metrics.meanErrorPercent,
                      p.metrics.meanErrorPercent);
            EXPECT_EQ(s.metrics.maxErrorPercent,
                      p.metrics.maxErrorPercent);
        }
    }
}

struct Fixture
{
    dataset::PerfDatabase db = dataset::makePaperDataset();
    linalg::Matrix chars = dataset::MicaGenerator().generateForCatalog();
};

TEST(ModelCacheDeterminism, CacheOnOffIdenticalForAllMethods)
{
    Fixture f;
    std::vector<std::size_t> predictive;
    for (std::size_t m = 0; m < 10; ++m)
        predictive.push_back(m);
    const std::vector<std::size_t> target = {30, 31, 32};

    const experiments::SplitEvaluator plain(f.db, f.chars, fastSuite(1));
    const auto reference = plain.evaluateSplit(
        predictive, target, experiments::extendedMethods(), 3);

    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE(threads);
        auto cache = std::make_shared<TrainedModelCache>();
        const experiments::SplitEvaluator cached(
            f.db, f.chars, fastSuite(threads, cache));
        expectIdentical(reference,
                        cached.evaluateSplit(
                            predictive, target,
                            experiments::extendedMethods(), 3));
        // Repeating the split is served from the cache end to end.
        const auto first_pass = cache->stats();
        expectIdentical(reference,
                        cached.evaluateSplit(
                            predictive, target,
                            experiments::extendedMethods(), 3));
        EXPECT_GT(cache->stats().hits, first_pass.hits);
    }
}

TEST(ModelCacheDeterminism, TinyCapacityStillIdentical)
{
    // A cache that is constantly evicting must degrade performance
    // only, never results.
    Fixture f;
    const std::vector<std::size_t> predictive = {0, 1, 2, 3, 4, 5};
    const std::vector<std::size_t> target = {40, 41};

    const experiments::SplitEvaluator plain(f.db, f.chars, fastSuite(1));
    auto tiny = std::make_shared<TrainedModelCache>(16);
    const experiments::SplitEvaluator cached(f.db, f.chars,
                                             fastSuite(2, tiny));

    expectIdentical(
        plain.evaluateSplit(predictive, target,
                            experiments::allMethods(), 1),
        cached.evaluateSplit(predictive, target,
                             experiments::allMethods(), 1));
}

} // namespace
