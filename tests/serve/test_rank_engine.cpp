/**
 * @file
 * RankEngine tests: the serve bit-identity contract (a request's
 * predictions equal the offline evaluateSplit entries exactly), the
 * coalesced executeBatch == per-request execute equivalence including
 * target-union deduplication, and per-request validation errors.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "dataset/synthetic_spec.h"
#include "experiments/harness.h"
#include "linalg/matrix.h"
#include "serve/rank_engine.h"
#include "util/rng.h"

namespace dtrank::serve
{
namespace
{

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
        std::vector<char> owned(db_.machineCount(), 0);
        for (std::size_t m : predictive_)
            owned[m] = 1;
        for (std::size_t m = 0; m < db_.machineCount(); ++m)
            if (!owned[m])
                targets_.push_back(m);
        engine_ = std::make_unique<RankEngine>(db_, std::nullopt,
                                               RankEngineConfig{});
    }

    /** The wire form of the offline split for one method and app. */
    RankRequest
    makeRequest(experiments::Method method, std::uint32_t app) const
    {
        RankRequest request;
        request.method = method;
        request.app = app;
        for (std::size_t m : predictive_)
            request.predictive.emplace_back(
                static_cast<std::uint32_t>(m), db_.scores()(app, m));
        return request;
    }

    dataset::PerfDatabase db_;
    std::vector<std::size_t> predictive_;
    std::vector<std::size_t> targets_;
    std::unique_ptr<RankEngine> engine_;
};

TEST_F(RankEngineTest, MatchesOfflineEvaluateSplitBitForBit)
{
    const std::vector<experiments::Method> methods = {
        experiments::Method::NnT, experiments::Method::MlpT,
        experiments::Method::SplT, experiments::Method::MultiNnT};
    // GA-kNN is not under test; a zero characteristics matrix keeps the
    // evaluator constructible without one.
    const experiments::SplitEvaluator evaluator(
        db_, linalg::Matrix(db_.benchmarkCount(), 1),
        engine_->config().suite);
    const experiments::SplitResults reference =
        evaluator.evaluateSplit(predictive_, targets_, methods, 0);

    for (const experiments::Method method : methods) {
        const std::uint32_t app = 2;
        const RankOutcome outcome =
            engine_->execute(makeRequest(method, app));
        ASSERT_EQ(outcome.status, Status::Ok) << outcome.error;
        std::map<std::uint32_t, double> by_machine;
        for (const RankedMachine &r : outcome.ranking)
            by_machine[r.machine] = r.predicted;
        const std::vector<double> &expected =
            reference.at(method)[app].predicted;
        ASSERT_EQ(by_machine.size(), targets_.size());
        for (std::size_t t = 0; t < targets_.size(); ++t)
            EXPECT_EQ(by_machine.at(static_cast<std::uint32_t>(
                          targets_[t])),
                      expected[t])
                << experiments::methodName(method) << " target " << t;
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
    // Two full-universe requests: the common case the coalescer fuses.
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
    // request keeps only 3, so the foreign universe is *larger* than
    // the lead's and its whole-universe positions would index past
    // the lead-sized slot table if the coalesced path trusted the key.
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
    // The two same-session requests rank the lead universe; the
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
