/**
 * @file
 * RankEngine tests: the serve bit-identity contract (a request's
 * predictions equal the offline evaluateSplit entries exactly, for
 * every method and app, default and explicit targets), the coalesced
 * executeBatch == per-request execute equivalence including
 * target-union deduplication, an evicted session rebuilding to the
 * same bits, and per-request validation errors.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dataset/mica.h"
#include "dataset/scaled_spec.h"
#include "dataset/synthetic_spec.h"
#include "experiments/harness.h"
#include "linalg/matrix.h"
#include "obs/metrics.h"
#include "serve/rank_engine.h"
#include "util/rng.h"

namespace dtrank::serve
{
namespace
{

/** The wire form of an offline split for one method and app. */
RankRequest
requestFor(const dataset::PerfDatabase &db,
           const std::vector<std::size_t> &predictive,
           experiments::Method method, std::size_t app)
{
    RankRequest request;
    request.method = method;
    request.app = static_cast<std::uint32_t>(app);
    for (std::size_t m : predictive)
        request.predictive.emplace_back(static_cast<std::uint32_t>(m),
                                        db.scores()(app, m));
    return request;
}

/** Every machine outside `predictive`, ascending. */
std::vector<std::size_t>
complementOf(std::size_t machine_count,
             const std::vector<std::size_t> &predictive)
{
    std::vector<char> owned(machine_count, 0);
    for (std::size_t m : predictive)
        owned[m] = 1;
    std::vector<std::size_t> rest;
    for (std::size_t m = 0; m < machine_count; ++m)
        if (!owned[m])
            rest.push_back(m);
    return rest;
}

/**
 * The daemon's defaults with a cheap GA search: the contract is about
 * bits, not accuracy.
 */
experiments::MethodSuiteConfig
fastSuite()
{
    experiments::MethodSuiteConfig suite;
    suite.gaKnn.ga.populationSize = 10;
    suite.gaKnn.ga.generations = 4;
    return suite;
}

/**
 * Runs `methods` on one split offline (evaluateSplit over every
 * machine outside `predictive`) and through a fresh engine, for every
 * app. The default request, and an explicit target subset in shuffled
 * order, must both reproduce the offline entries bit for bit.
 */
void
expectEngineMatchesOffline(const dataset::PerfDatabase &db,
                           const linalg::Matrix &characteristics,
                           const experiments::MethodSuiteConfig &suite,
                           const std::vector<std::size_t> &predictive,
                           const std::vector<experiments::Method> &methods,
                           const std::string &label)
{
    const std::vector<std::size_t> targets =
        complementOf(db.machineCount(), predictive);
    const experiments::SplitEvaluator evaluator(db, characteristics,
                                                suite);
    const experiments::SplitResults reference =
        evaluator.evaluateSplit(predictive, targets, methods, 0);
    RankEngineConfig config;
    config.suite = suite;
    RankEngine engine(db, characteristics, config);
    util::Rng rng(29);

    for (const experiments::Method method : methods) {
        for (std::size_t app = 0; app < db.benchmarkCount(); ++app) {
            const std::vector<double> &expected =
                reference.at(method)[app].predicted;
            const std::string where = label + " " +
                                      experiments::methodName(method) +
                                      " app " + std::to_string(app);
            RankRequest request = requestFor(db, predictive, method, app);

            const RankOutcome full = engine.execute(request);
            ASSERT_EQ(full.status, Status::Ok) << where << full.error;
            std::map<std::uint32_t, double> by_machine;
            for (const RankedMachine &r : full.ranking)
                by_machine[r.machine] = r.predicted;
            ASSERT_EQ(by_machine.size(), targets.size()) << where;
            std::size_t mismatches = 0;
            for (std::size_t t = 0; t < targets.size(); ++t)
                mismatches +=
                    by_machine.at(static_cast<std::uint32_t>(
                        targets[t])) != expected[t];
            EXPECT_EQ(mismatches, 0u) << where << " (all targets)";

            const std::vector<std::size_t> pick =
                rng.sampleWithoutReplacement(
                    targets.size(), std::min<std::size_t>(
                                        targets.size(), 1 + app % 7));
            for (std::size_t p : pick)
                request.targets.push_back(
                    static_cast<std::uint32_t>(targets[p]));
            const RankOutcome subset = engine.execute(request);
            ASSERT_EQ(subset.status, Status::Ok) << where << subset.error;
            ASSERT_EQ(subset.ranking.size(), pick.size()) << where;
            by_machine.clear();
            for (const RankedMachine &r : subset.ranking)
                by_machine[r.machine] = r.predicted;
            mismatches = 0;
            for (std::size_t p : pick)
                mismatches +=
                    by_machine.at(static_cast<std::uint32_t>(
                        targets[p])) != expected[p];
            EXPECT_EQ(mismatches, 0u) << where << " (explicit targets)";
        }
    }
}

class RankEngineTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        db_ = dataset::SyntheticSpecGenerator().generate();
        util::Rng rng(17);
        predictive_ =
            rng.sampleWithoutReplacement(db_.machineCount(), 10);
        std::sort(predictive_.begin(), predictive_.end());
        targets_ = complementOf(db_.machineCount(), predictive_);
        engine_ = std::make_unique<RankEngine>(db_, std::nullopt,
                                               RankEngineConfig{});
    }

    RankRequest
    makeRequest(experiments::Method method, std::uint32_t app) const
    {
        return requestFor(db_, predictive_, method, app);
    }

    dataset::PerfDatabase db_;
    std::vector<std::size_t> predictive_;
    std::vector<std::size_t> targets_;
    std::unique_ptr<RankEngine> engine_;
};

TEST_F(RankEngineTest, MatchesOfflineEvaluateSplitBitForBit)
{
    const std::vector<experiments::Method> &methods =
        experiments::extendedMethods();
    const experiments::MethodSuiteConfig suite = fastSuite();
    const linalg::Matrix paper_chars =
        dataset::MicaGenerator().generateForCatalog();

    // The paper database, every method and app.
    expectEngineMatchesOffline(db_, paper_chars, suite, predictive_,
                               methods, "paper");

    // A 2000-machine database with its own characteristics.
    {
        dataset::ScaledSpecConfig spec;
        spec.machines = 2000;
        const dataset::ScaledSpecGenerator generator(spec);
        const dataset::PerfDatabase scaled = generator.generate();
        const linalg::Matrix chars = dataset::MicaGenerator().generate(
            generator.benchmarkProfiles());
        // Few owned machines: SPL^T's per-(target, owned) spline fits
        // dominate the cost at this size.
        util::Rng rng(41);
        std::vector<std::size_t> owned =
            rng.sampleWithoutReplacement(scaled.machineCount(), 4);
        expectEngineMatchesOffline(scaled, chars, suite, owned, methods,
                                   "scaled:2000");
    }

    // NN^T and MLP^T in log2 space.
    {
        experiments::MethodSuiteConfig logged = suite;
        logged.linear.logSpace = true;
        logged.mlp.logSpace = true;
        expectEngineMatchesOffline(
            db_, paper_chars, logged, predictive_,
            {experiments::Method::NnT, experiments::Method::MlpT},
            "paper log2");
    }

    // Predictive machines that carry some benchmarks' min and max
    // scores, in unsorted wire order: MLP^T's feature ranges then come
    // from the predictive columns, which the engine also sees again
    // among its targets.
    {
        std::vector<std::size_t> owned;
        const auto own = [&](std::size_t m) {
            if (std::find(owned.begin(), owned.end(), m) == owned.end())
                owned.push_back(m);
        };
        for (std::size_t b = 0; b < 4; ++b) {
            const std::vector<double> row = db_.benchmarkScores(b);
            own(static_cast<std::size_t>(
                std::max_element(row.begin(), row.end()) - row.begin()));
            own(static_cast<std::size_t>(
                std::min_element(row.begin(), row.end()) - row.begin()));
        }
        own(predictive_.front());
        own(predictive_.back());
        ASSERT_GE(owned.size(), 3u);
        expectEngineMatchesOffline(
            db_, paper_chars, suite, owned,
            {experiments::Method::NnT, experiments::Method::MlpT,
             experiments::Method::DeepT},
            "extremes owned");
        experiments::MethodSuiteConfig logged = suite;
        logged.mlp.logSpace = true;
        expectEngineMatchesOffline(db_, paper_chars, logged, owned,
                                   {experiments::Method::MlpT},
                                   "extremes owned log2");
    }
}

TEST_F(RankEngineTest, EvictedSessionRebuildsToSameBits)
{
    const linalg::Matrix chars =
        dataset::MicaGenerator().generateForCatalog();
    RankEngineConfig config;
    config.suite = fastSuite();
    RankEngine reference(db_, chars, config);
    config.sessionCapacity = 1;
    RankEngine engine(db_, chars, config);
    obs::Counter &fits =
        obs::MetricsRegistry::global().counter("dtrank_mlp_fits_total");

    const auto expectSame = [](const RankOutcome &a, const RankOutcome &b,
                               const std::string &where) {
        ASSERT_EQ(a.status, Status::Ok) << where << a.error;
        ASSERT_EQ(b.status, Status::Ok) << where << b.error;
        ASSERT_EQ(a.ranking.size(), b.ranking.size()) << where;
        for (std::size_t r = 0; r < a.ranking.size(); ++r) {
            EXPECT_EQ(a.ranking[r].machine, b.ranking[r].machine) << where;
            EXPECT_EQ(a.ranking[r].predicted, b.ranking[r].predicted)
                << where;
        }
    };

    for (const experiments::Method method :
         experiments::extendedMethods()) {
        const std::string where = experiments::methodName(method);
        const RankRequest first = makeRequest(method, 5);
        const RankRequest second = makeRequest(method, 6);
        const RankOutcome expected = reference.execute(first);
        expectSame(expected, engine.execute(first), where);
        expectSame(reference.execute(second), engine.execute(second),
                   where);

        // Capacity 1: the second session evicted the first, so asking
        // for the first again rebuilds it anew; an MLP-based
        // method visibly refits its network.
        const std::uint64_t fits0 = fits.value();
        expectSame(expected, engine.execute(first), where);
        const bool mlp_based = method == experiments::Method::MlpT ||
                               method == experiments::Method::DeepT;
        EXPECT_EQ(fits.value() - fits0, mlp_based ? 1u : 0u) << where;
    }
}

TEST_F(RankEngineTest, RankingSortedByScoreWithTopKTruncation)
{
    RankRequest request = makeRequest(experiments::Method::NnT, 0);
    request.topK = 3;
    const RankOutcome outcome = engine_->execute(request);
    ASSERT_EQ(outcome.status, Status::Ok) << outcome.error;
    ASSERT_EQ(outcome.ranking.size(), 3u);
    EXPECT_GE(outcome.ranking[0].predicted,
              outcome.ranking[1].predicted);
    EXPECT_GE(outcome.ranking[1].predicted,
              outcome.ranking[2].predicted);
}

TEST(RankOrder, TopKIsThePrefixOfTheFullSortWithTies)
{
    // Heavy ties (scores drawn from 5 values) and shuffled machine ids,
    // so the machine-ascending tie-break decides most of the order.
    util::Rng rng(31);
    const std::size_t n = 200;
    std::vector<double> scores(n);
    for (double &v : scores)
        v = static_cast<double>(rng.index(5)) * 0.5;
    std::vector<std::size_t> ids =
        rng.sampleWithoutReplacement(10 * n, n);
    std::vector<std::uint32_t> machines(ids.begin(), ids.end());

    std::vector<std::size_t> full(n);
    for (std::size_t i = 0; i < n; ++i)
        full[i] = i;
    std::sort(full.begin(), full.end(), [&](std::size_t a, std::size_t b) {
        if (scores[a] != scores[b])
            return scores[a] > scores[b];
        return machines[a] < machines[b];
    });

    EXPECT_EQ(rankOrder(scores, machines, 0), full);
    for (const std::uint32_t k : {1u, 7u, 200u, 201u, 5000u}) {
        const std::size_t keep = std::min<std::size_t>(k, n);
        const std::vector<std::size_t> prefix(
            full.begin(), full.begin() + static_cast<std::ptrdiff_t>(keep));
        EXPECT_EQ(rankOrder(scores, machines, k), prefix) << "top_k " << k;
    }
    EXPECT_TRUE(rankOrder({}, {}, 10).empty());
}

TEST_F(RankEngineTest, BatchedExecutionIsBitIdentical)
{
    // Mixed subset requests of one session, with heavy target overlap
    // so the batch path's union deduplication is exercised.
    util::Rng rng(23);
    std::vector<RankRequest> batch;
    for (std::size_t i = 0; i < 12; ++i) {
        RankRequest request =
            makeRequest(experiments::Method::MlpT, 4);
        const std::size_t k = 1 + rng.index(8);
        std::vector<std::size_t> pick =
            rng.sampleWithoutReplacement(targets_.size(), k);
        std::sort(pick.begin(), pick.end());
        for (std::size_t p : pick)
            request.targets.push_back(
                static_cast<std::uint32_t>(targets_[p]));
        batch.push_back(std::move(request));
    }
    // Two default (whole-complement) requests: the common case the
    // coalescer fuses.
    batch.push_back(makeRequest(experiments::Method::MlpT, 4));
    batch.push_back(makeRequest(experiments::Method::MlpT, 4));

    const std::vector<RankOutcome> batched =
        engine_->executeBatch(batch);
    ASSERT_EQ(batched.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const RankOutcome serial = engine_->execute(batch[i]);
        ASSERT_EQ(batched[i].status, Status::Ok) << batched[i].error;
        ASSERT_EQ(serial.ranking.size(), batched[i].ranking.size());
        for (std::size_t r = 0; r < serial.ranking.size(); ++r) {
            EXPECT_EQ(serial.ranking[r].machine,
                      batched[i].ranking[r].machine);
            EXPECT_EQ(serial.ranking[r].predicted,
                      batched[i].ranking[r].predicted);
        }
    }
}

TEST_F(RankEngineTest, BatchKeyGroupsOnlySameSessionMlp)
{
    const RankRequest mlp_a = makeRequest(experiments::Method::MlpT, 1);
    const RankRequest mlp_b = makeRequest(experiments::Method::MlpT, 1);
    const RankRequest mlp_other_app =
        makeRequest(experiments::Method::MlpT, 2);
    const RankRequest nn = makeRequest(experiments::Method::NnT, 1);
    EXPECT_NE(engine_->batchKey(mlp_a), 0u);
    EXPECT_EQ(engine_->batchKey(mlp_a), engine_->batchKey(mlp_b));
    EXPECT_NE(engine_->batchKey(mlp_a),
              engine_->batchKey(mlp_other_app));
    EXPECT_EQ(engine_->batchKey(nn), 0u);
}

TEST_F(RankEngineTest, MixedSessionBatchFallsBackPerRequest)
{
    // The coalescer keys batches on a 64-bit fold of the 128-bit
    // session hash, so a collision can hand executeBatch requests
    // from *different* sessions. Simulate one directly: the lead
    // request's session has 10 predictive machines while the foreign
    // request keeps only 3, so its default targets differ from the
    // lead's and its scores must come from its own fitted model.
    std::vector<RankRequest> batch;
    batch.push_back(makeRequest(experiments::Method::MlpT, 4));
    RankRequest foreign = makeRequest(experiments::Method::MlpT, 4);
    foreign.predictive.resize(3);
    batch.push_back(std::move(foreign));
    batch.push_back(makeRequest(experiments::Method::MlpT, 4));

    const std::vector<RankOutcome> batched =
        engine_->executeBatch(batch);
    ASSERT_EQ(batched.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        ASSERT_EQ(batched[i].status, Status::Ok) << batched[i].error;
        const RankOutcome serial = engine_->execute(batch[i]);
        ASSERT_EQ(serial.ranking.size(), batched[i].ranking.size());
        for (std::size_t r = 0; r < serial.ranking.size(); ++r) {
            EXPECT_EQ(serial.ranking[r].machine,
                      batched[i].ranking[r].machine);
            EXPECT_EQ(serial.ranking[r].predicted,
                      batched[i].ranking[r].predicted);
        }
    }
    // The two same-session requests rank the lead's complement; the
    // foreign session's is bigger by the 7 machines it freed up.
    EXPECT_EQ(batched[1].ranking.size(),
              batched[0].ranking.size() + 7);
}

TEST_F(RankEngineTest, InvalidRequestsFailIndividually)
{
    // Out-of-range app.
    RankRequest bad_app = makeRequest(experiments::Method::NnT, 0);
    bad_app.app = 10000;
    EXPECT_EQ(engine_->execute(bad_app).status, Status::Error);

    // Target inside the predictive set.
    RankRequest bad_target = makeRequest(experiments::Method::NnT, 0);
    bad_target.targets = {
        static_cast<std::uint32_t>(predictive_.front())};
    EXPECT_EQ(engine_->execute(bad_target).status, Status::Error);

    // Duplicate predictive machine.
    RankRequest dup = makeRequest(experiments::Method::NnT, 0);
    dup.predictive.push_back(dup.predictive.front());
    EXPECT_EQ(engine_->execute(dup).status, Status::Error);

    // Non-finite partial score.
    RankRequest nan_score = makeRequest(experiments::Method::NnT, 0);
    nan_score.predictive.front().second = -1.0;
    EXPECT_EQ(engine_->execute(nan_score).status, Status::Error);

    // GA-kNN without characteristics must error, not crash.
    EXPECT_EQ(engine_->execute(
                       makeRequest(experiments::Method::GaKnn, 0))
                  .status,
              Status::Error);

    // In a batch, one bad request must not poison the others.
    std::vector<RankRequest> batch;
    batch.push_back(makeRequest(experiments::Method::MlpT, 3));
    RankRequest bad = makeRequest(experiments::Method::MlpT, 3);
    bad.targets = {static_cast<std::uint32_t>(predictive_.front())};
    batch.push_back(std::move(bad));
    batch.push_back(makeRequest(experiments::Method::MlpT, 3));
    const std::vector<RankOutcome> outcomes =
        engine_->executeBatch(batch);
    EXPECT_EQ(outcomes[0].status, Status::Ok);
    EXPECT_EQ(outcomes[1].status, Status::Error);
    EXPECT_EQ(outcomes[2].status, Status::Ok);
}

} // namespace
} // namespace dtrank::serve
