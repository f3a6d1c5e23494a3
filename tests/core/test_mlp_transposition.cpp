/**
 * @file
 * Unit tests for the MLP^T predictor.
 */

#include <gtest/gtest.h>

#include "core/linear_transposition.h"
#include "core/mlp_transposition.h"
#include "util/error.h"
#include "util/rng.h"

namespace
{

using namespace dtrank;

/**
 * A problem whose app score is a fixed linear combination of two
 * benchmark scores, consistent across machines: the network must learn
 * app = 0.5 * bench0 + 0.25 * bench1.
 */
core::TranspositionProblem
linearRelationProblem(std::size_t n_pred, std::size_t n_target)
{
    util::Rng rng(7);
    core::TranspositionProblem p;
    const std::size_t n_bench = 6;
    p.predictiveBenchScores = linalg::Matrix(n_bench, n_pred);
    p.targetBenchScores = linalg::Matrix(n_bench, n_target);
    p.predictiveAppScores.resize(n_pred);

    auto fill_machine = [&](linalg::Matrix &m, std::size_t col,
                            double speed) {
        for (std::size_t b = 0; b < n_bench; ++b)
            m(b, col) = speed * (1.0 + 0.2 * static_cast<double>(b)) +
                        rng.gaussian(0.0, 0.05);
    };
    for (std::size_t c = 0; c < n_pred; ++c) {
        const double speed = rng.uniform(5.0, 30.0);
        fill_machine(p.predictiveBenchScores, c, speed);
        p.predictiveAppScores[c] =
            0.5 * p.predictiveBenchScores(0, c) +
            0.25 * p.predictiveBenchScores(1, c);
    }
    for (std::size_t c = 0; c < n_target; ++c)
        fill_machine(p.targetBenchScores, c, rng.uniform(5.0, 30.0));
    return p;
}

TEST(MlpTransposition, LearnsConsistentRelation)
{
    const auto problem = linearRelationProblem(40, 10);
    core::MlpTranspositionConfig config;
    config.mlp.epochs = 300;
    core::MlpTransposition predictor(config);
    const auto pred = predictor.predict(problem);

    ASSERT_EQ(pred.size(), 10u);
    for (std::size_t t = 0; t < 10; ++t) {
        const double expected =
            0.5 * problem.targetBenchScores(0, t) +
            0.25 * problem.targetBenchScores(1, t);
        EXPECT_NEAR(pred[t], expected, 0.15 * expected) << t;
    }
}

TEST(MlpTransposition, DeterministicForFixedSeed)
{
    const auto problem = linearRelationProblem(20, 5);
    core::MlpTranspositionConfig config;
    config.mlp.epochs = 50;
    core::MlpTransposition a(config);
    core::MlpTransposition b(config);
    EXPECT_EQ(a.predict(problem), b.predict(problem));
}

TEST(MlpTransposition, SeedChangesPrediction)
{
    const auto problem = linearRelationProblem(20, 5);
    core::MlpTranspositionConfig c1;
    c1.mlp.epochs = 50;
    core::MlpTranspositionConfig c2 = c1;
    c2.mlp.seed = 321;
    core::MlpTransposition a(c1);
    core::MlpTransposition b(c2);
    EXPECT_NE(a.predict(problem), b.predict(problem));
}

TEST(MlpTransposition, PredictionsArePositive)
{
    const auto problem = linearRelationProblem(10, 20);
    core::MlpTranspositionConfig config;
    config.mlp.epochs = 20;
    core::MlpTransposition predictor(config);
    for (double v : predictor.predict(problem))
        EXPECT_GT(v, 0.0);
}

TEST(MlpTransposition, WorksWithThreePredictiveMachines)
{
    // The Table 4 regime: very few training machines. The transductive
    // normalization must keep predictions finite and ordered sanely.
    const auto problem = linearRelationProblem(3, 30);
    core::MlpTranspositionConfig config;
    config.mlp.epochs = 300;
    core::MlpTransposition predictor(config);
    const auto pred = predictor.predict(problem);
    for (double v : pred)
        EXPECT_TRUE(std::isfinite(v));

    // Faster machines (larger bench0) must generally predict larger.
    std::size_t fastest = 0;
    std::size_t slowest = 0;
    for (std::size_t t = 1; t < 30; ++t) {
        if (problem.targetBenchScores(0, t) >
            problem.targetBenchScores(0, fastest))
            fastest = t;
        if (problem.targetBenchScores(0, t) <
            problem.targetBenchScores(0, slowest))
            slowest = t;
    }
    EXPECT_GT(pred[fastest], pred[slowest]);
}

TEST(MlpTransposition, NonTransductiveModeStillWorksInRange)
{
    auto problem = linearRelationProblem(40, 10);
    core::MlpTranspositionConfig config;
    config.mlp.epochs = 200;
    config.transductiveNormalization = false;
    core::MlpTransposition predictor(config);
    const auto pred = predictor.predict(problem);
    for (double v : pred)
        EXPECT_TRUE(std::isfinite(v));
}

TEST(MlpTransposition, ValidatesProblem)
{
    core::TranspositionProblem bad;
    core::MlpTransposition predictor{};
    EXPECT_THROW(predictor.predict(bad), util::InvalidArgument);
}

TEST(MlpTransposition, NameIsPaperName)
{
    core::MlpTransposition predictor{};
    EXPECT_EQ(predictor.name(), "MLP^T");
    core::LinearTransposition lin{};
    EXPECT_EQ(lin.name(), "NN^T");
}

} // namespace
