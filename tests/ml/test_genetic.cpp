/**
 * @file
 * Unit and property tests for the real-coded genetic algorithm.
 */

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "ml/genetic.h"
#include "util/error.h"

namespace
{

using namespace dtrank;

/** Individuals the GA copies unchanged into each generation. */
constexpr std::size_t kElites = 2;

ml::GaConfig
smallConfig()
{
    ml::GaConfig config;
    config.populationSize = 30;
    config.generations = 40;
    return config;
}

/** The GA's batch fitness, scoring one genome at a time with `fitness`. */
template <typename Fn>
ml::GeneticAlgorithm::BatchFitnessFn
perGenome(Fn fitness)
{
    return [fitness](const std::vector<const std::vector<double> *> &genomes,
                     double *scores, obs::TraceSpan &) {
        for (std::size_t i = 0; i < genomes.size(); ++i)
            scores[i] = fitness(*genomes[i]);
    };
}

TEST(Ga, MaximizesSimpleQuadratic)
{
    // Maximize -(x - 0.7)^2: optimum at x = 0.7.
    const ml::GeneticAlgorithm ga(smallConfig(), {0.0}, {1.0});
    util::Rng rng(1);
    const auto result = ga.optimize(
        perGenome([](const std::vector<double> &g) {
            return -(g[0] - 0.7) * (g[0] - 0.7);
        }),
        rng);
    EXPECT_NEAR(result.bestGenome[0], 0.7, 0.05);
    EXPECT_GT(result.bestFitness, -0.01);
}

TEST(Ga, SolvesMultiDimensionalSphere)
{
    const std::vector<double> lower(5, -2.0);
    const std::vector<double> upper(5, 2.0);
    ml::GaConfig config = smallConfig();
    config.generations = 80;
    const ml::GeneticAlgorithm ga(config, lower, upper);
    util::Rng rng(2);
    const auto result = ga.optimize(
        perGenome([](const std::vector<double> &g) {
            double acc = 0.0;
            for (double x : g)
                acc -= x * x;
            return acc;
        }),
        rng);
    for (double x : result.bestGenome)
        EXPECT_NEAR(x, 0.0, 0.25);
}

TEST(Ga, RespectsBounds)
{
    const ml::GeneticAlgorithm ga(smallConfig(), {1.0, -3.0},
                                  {2.0, -1.0});
    util::Rng rng(3);
    // Fitness pushes toward the boundary; solutions must stay inside.
    const auto result = ga.optimize(
        perGenome([](const std::vector<double> &g) { return g[0] - g[1]; }),
        rng);
    EXPECT_GE(result.bestGenome[0], 1.0);
    EXPECT_LE(result.bestGenome[0], 2.0);
    EXPECT_GE(result.bestGenome[1], -3.0);
    EXPECT_LE(result.bestGenome[1], -1.0);
    // Optimum is at (2, -3).
    EXPECT_NEAR(result.bestGenome[0], 2.0, 0.05);
    EXPECT_NEAR(result.bestGenome[1], -3.0, 0.1);
}

TEST(Ga, HistoryIsMonotoneNonDecreasing)
{
    const ml::GeneticAlgorithm ga(smallConfig(), {0.0}, {1.0});
    util::Rng rng(4);
    const auto result = ga.optimize(
        perGenome([](const std::vector<double> &g) { return g[0]; }), rng);
    ASSERT_FALSE(result.history.empty());
    for (std::size_t i = 1; i < result.history.size(); ++i)
        EXPECT_GE(result.history[i], result.history[i - 1]);
}

TEST(Ga, DeterministicGivenSeed)
{
    const ml::GeneticAlgorithm ga(smallConfig(), {0.0, 0.0},
                                  {1.0, 1.0});
    const auto fitness = [](const std::vector<double> &g) {
        return g[0] * g[1];
    };
    util::Rng rng1(5);
    util::Rng rng2(5);
    const auto a = ga.optimize(perGenome(fitness), rng1);
    const auto b = ga.optimize(perGenome(fitness), rng2);
    EXPECT_EQ(a.bestGenome, b.bestGenome);
    EXPECT_DOUBLE_EQ(a.bestFitness, b.bestFitness);
}

TEST(Ga, EvaluationCountMatchesSchedule)
{
    ml::GaConfig config = smallConfig();
    const ml::GeneticAlgorithm ga(config, {0.0}, {1.0});
    util::Rng rng(6);
    std::size_t calls = 0;
    const auto result = ga.optimize(
        perGenome([&](const std::vector<double> &g) {
            ++calls;
            return g[0];
        }),
        rng);
    // Every individual of the initial population and of each
    // generation is either evaluated or carries a known score, and
    // elites always carry theirs.
    EXPECT_EQ(result.evaluations + result.carried,
              config.populationSize * (config.generations + 1));
    EXPECT_GE(result.carried, kElites * config.generations);
    EXPECT_EQ(calls, result.evaluations);
}

TEST(Ga, CarriedScoresMatchReevaluation)
{
    // The batch fitness sees only unscored genomes; scoring every
    // genome afresh must agree with the carried scores, so the best
    // genome and history equal a run that re-scores everything.
    // At the fixed rates (crossover 0.9, per-gene mutation 0.1) at
    // least one child in twelve of a two-gene genome stays equal to a
    // parent.
    ml::GaConfig config = smallConfig();
    const ml::GeneticAlgorithm ga(config, {0.0, 0.0}, {1.0, 1.0});
    const auto fitness = [](const std::vector<double> &g) {
        return -(g[0] - 0.3) * (g[0] - 0.3) - (g[1] - 0.8) * (g[1] - 0.8);
    };
    std::size_t batches = 0;
    std::size_t scored = 0;
    util::Rng rng(7);
    const auto result = ga.optimize(
        [&](const std::vector<const std::vector<double> *> &genomes,
            double *scores, obs::TraceSpan &) {
            ++batches;
            scored += genomes.size();
            for (std::size_t i = 0; i < genomes.size(); ++i)
                scores[i] = fitness(*genomes[i]);
        },
        rng);
    EXPECT_EQ(batches, config.generations + 1);
    EXPECT_EQ(scored, result.evaluations);
    EXPECT_GT(result.carried, kElites * config.generations);
    EXPECT_EQ(fitness(result.bestGenome), result.bestFitness);
    EXPECT_EQ(result.history.back(), result.bestFitness);
}

TEST(Ga, ThrowsWhenNoFitnessIsComparable)
{
    // An all-NaN fitness leaves no genome better than -inf: the GA
    // must not return an empty best genome as if it had succeeded.
    const ml::GeneticAlgorithm ga(smallConfig(), {0.0}, {1.0});
    util::Rng rng(10);
    EXPECT_THROW(ga.optimize(perGenome([](const std::vector<double> &) {
                     return std::numeric_limits<double>::quiet_NaN();
                 }),
                             rng),
                 util::InvalidArgument);
}

TEST(Ga, ValidatesConfiguration)
{
    const std::vector<double> lo = {0.0};
    const std::vector<double> hi = {1.0};

    ml::GaConfig bad = smallConfig();
    bad.populationSize = 1;
    EXPECT_THROW(ml::GeneticAlgorithm(bad, lo, hi),
                 util::InvalidArgument);

    bad = smallConfig();
    bad.generations = 0;
    EXPECT_THROW(ml::GeneticAlgorithm(bad, lo, hi),
                 util::InvalidArgument);

    // --ga-population sets the size: it must leave room beside the
    // elites.
    bad = smallConfig();
    bad.populationSize = kElites;
    EXPECT_THROW(ml::GeneticAlgorithm(bad, lo, hi),
                 util::InvalidArgument);
    bad.populationSize = kElites + 1;
    EXPECT_NO_THROW(ml::GeneticAlgorithm(bad, lo, hi));
}

TEST(Ga, ValidatesBounds)
{
    EXPECT_THROW(ml::GeneticAlgorithm(smallConfig(), {}, {}),
                 util::InvalidArgument);
    EXPECT_THROW(ml::GeneticAlgorithm(smallConfig(), {0.0}, {0.0, 1.0}),
                 util::InvalidArgument);
    EXPECT_THROW(ml::GeneticAlgorithm(smallConfig(), {1.0}, {0.0}),
                 util::InvalidArgument);
}

TEST(Ga, RejectsNullFitness)
{
    const ml::GeneticAlgorithm ga(smallConfig(), {0.0}, {1.0});
    util::Rng rng(1);
    EXPECT_THROW(ga.optimize(ml::GeneticAlgorithm::BatchFitnessFn{}, rng),
                 util::InvalidArgument);
}

} // namespace
