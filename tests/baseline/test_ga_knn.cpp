/**
 * @file
 * Unit tests for the GA-kNN baseline.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/ga_knn.h"
#include "dataset/mica.h"
#include "dataset/perf_database.h"
#include "dataset/scaled_spec.h"
#include "dataset/synthetic_spec.h"
#include "simd/simd.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace
{

using namespace dtrank;

baseline::GaKnnConfig
fastConfig()
{
    baseline::GaKnnConfig config;
    config.ga.populationSize = 12;
    config.ga.generations = 8;
    return config;
}

/**
 * A toy world with two workload groups living on one characteristic
 * axis: group A (characteristic 0) scores low, group B
 * (characteristic 1) scores high, on every machine.
 */
struct ToyWorld
{
    linalg::Matrix characteristics{
        {0.0, 0.0}, {0.05, 0.0}, {0.1, 0.0},   // group A
        {1.0, 0.0}, {0.95, 0.0}, {0.9, 0.0}};  // group B
    linalg::Matrix scores{
        {10, 20}, {11, 21}, {12, 22},           // group A scores
        {30, 60}, {31, 61}, {32, 62}};          // group B scores
};

TEST(GaKnn, TrainsAndExposesWeights)
{
    ToyWorld world;
    baseline::GaKnnConfig config = fastConfig();
    config.k = 2;
    baseline::GaKnnModel model(config);
    EXPECT_FALSE(model.trained());
    EXPECT_THROW(model.weights(), util::InvalidArgument);
    model.train(world.characteristics, world.scores);
    EXPECT_TRUE(model.trained());
    ASSERT_EQ(model.weights().size(), 2u);
    for (double w : model.weights()) {
        EXPECT_GE(w, 0.0);
        EXPECT_LE(w, 1.0);
    }
    EXPECT_LE(model.trainingFitness(), 0.0);
}

TEST(GaKnn, NeighborsComeFromTheSameGroup)
{
    ToyWorld world;
    baseline::GaKnnConfig config = fastConfig();
    config.k = 2;
    baseline::GaKnnModel model(config);
    model.train(world.characteristics, world.scores);

    // A query at the group-A end must pick group-A rows.
    const auto nn = model.neighbors({0.02, 0.0}, world.characteristics);
    ASSERT_EQ(nn.size(), 2u);
    EXPECT_LT(nn[0], 3u);
    EXPECT_LT(nn[1], 3u);

    // And at the group-B end, group-B rows.
    const auto nn_b =
        model.neighbors({0.97, 0.0}, world.characteristics);
    EXPECT_GE(nn_b[0], 3u);
    EXPECT_GE(nn_b[1], 3u);
}

TEST(GaKnn, PredictionAveragesNeighborScores)
{
    ToyWorld world;
    baseline::GaKnnConfig config = fastConfig();
    config.k = 3;
    config.weighting = ml::KnnWeighting::Uniform;
    baseline::GaKnnModel model(config);
    model.train(world.characteristics, world.scores);

    const auto pred = model.predictApp({0.0, 0.0}, world.characteristics,
                                       world.scores);
    ASSERT_EQ(pred.size(), 2u);
    // Neighbors are the three group-A rows: mean scores (11, 21).
    EXPECT_NEAR(pred[0], 11.0, 1e-9);
    EXPECT_NEAR(pred[1], 21.0, 1e-9);
}

TEST(GaKnn, DeterministicGivenSeed)
{
    ToyWorld world;
    baseline::GaKnnModel a(fastConfig());
    baseline::GaKnnModel b(fastConfig());
    a.train(world.characteristics, world.scores);
    b.train(world.characteristics, world.scores);
    EXPECT_EQ(a.weights(), b.weights());
}

TEST(GaKnn, TrainValidation)
{
    baseline::GaKnnModel model(fastConfig());
    EXPECT_THROW(model.train(linalg::Matrix{{1.0}}, linalg::Matrix{{1.0}}),
                 util::InvalidArgument); // needs >= 2 benchmarks
    EXPECT_THROW(model.train(linalg::Matrix{{1.0}, {2.0}},
                             linalg::Matrix{{1.0}}),
                 util::InvalidArgument); // row mismatch
}

TEST(GaKnn, PredictValidation)
{
    ToyWorld world;
    baseline::GaKnnModel model(fastConfig());
    EXPECT_THROW(model.predictApp({0.0, 0.0}, world.characteristics,
                                  world.scores),
                 util::InvalidArgument); // not trained
    model.train(world.characteristics, world.scores);
    EXPECT_THROW(model.neighbors({0.0}, world.characteristics),
                 util::InvalidArgument); // wrong char count
    EXPECT_THROW(model.predictApp({0.0, 0.0}, world.characteristics,
                                  linalg::Matrix(2, 2, 1.0)),
                 util::InvalidArgument); // row mismatch
}

TEST(GaKnn, ConfigValidation)
{
    baseline::GaKnnConfig config = fastConfig();
    config.k = 0;
    EXPECT_THROW(baseline::GaKnnModel{config}, util::InvalidArgument);
}

/** Random world with the given benchmark/characteristic/machine shape. */
void
randomWorld(std::size_t benchmarks, std::size_t chars,
            std::size_t machines, std::uint64_t seed,
            linalg::Matrix &characteristics, linalg::Matrix &scores)
{
    util::Rng rng(seed);
    characteristics = linalg::Matrix(benchmarks, chars);
    scores = linalg::Matrix(benchmarks, machines);
    for (std::size_t b = 0; b < benchmarks; ++b) {
        for (std::size_t c = 0; c < chars; ++c)
            characteristics(b, c) = rng.uniform(0.0, 1.0);
        for (std::size_t m = 0; m < machines; ++m)
            scores(b, m) = rng.uniform(5.0, 50.0);
    }
}

/** Tiers this build and CPU can dispatch. */
std::vector<simd::Tier>
availableTiers()
{
    std::vector<simd::Tier> tiers = {simd::Tier::Scalar};
    for (const simd::Tier tier : {simd::Tier::Avx2, simd::Tier::Avx512})
        if (simd::tierAvailable(tier))
            tiers.push_back(tier);
    return tiers;
}

/** Restores the active SIMD tier on scope exit. */
class TierGuard
{
  public:
    TierGuard() : saved_(simd::activeTier()) {}
    ~TierGuard() { simd::setTier(saved_); }
    TierGuard(const TierGuard &) = delete;
    TierGuard &operator=(const TierGuard &) = delete;

  private:
    simd::Tier saved_;
};

/**
 * The per-genome GA-kNN fitness, written out one genome at a time:
 * each candidate's distance a simd::dot of the genome with the pair's
 * squared differences, partial_sort by (distance, index), and each
 * machine's neighbour scores gathered and combined one at a time.
 * GaKnnFitness must return exactly these bits.
 */
double
referenceFitness(const linalg::Matrix &chars, const linalg::Matrix &scores,
                 const dataset::ScoreMask *mask, std::size_t k,
                 ml::KnnWeighting weighting, const std::vector<double> &w)
{
    const std::size_t n_bench = chars.rows();
    const std::size_t n_char = chars.cols();
    const bool has_mask = mask != nullptr && !mask->dense();
    std::vector<double> row_d2(n_bench);
    std::vector<double> diff2(n_char);
    double error_sum = 0.0;
    std::size_t error_count = 0;
    for (std::size_t i = 0; i < n_bench; ++i) {
        std::vector<std::size_t> order;
        for (std::size_t j = 0; j < n_bench; ++j) {
            if (j == i)
                continue;
            for (std::size_t c = 0; c < n_char; ++c) {
                const double diff = chars(i, c) - chars(j, c);
                diff2[c] = diff * diff;
            }
            row_d2[j] = simd::dot(w.data(), diff2.data(), n_char);
            order.push_back(j);
        }
        const std::size_t take = std::min(k, order.size());
        std::partial_sort(order.begin(),
                          order.begin() + static_cast<std::ptrdiff_t>(take),
                          order.end(), [&](std::size_t a, std::size_t b) {
                              if (row_d2[a] != row_d2[b])
                                  return row_d2[a] < row_d2[b];
                              return a < b;
                          });
        order.resize(take);
        for (std::size_t m = 0; m < scores.cols(); ++m) {
            if (has_mask && !mask->valid(i, m))
                continue;
            std::vector<std::size_t> nn;
            for (std::size_t j : order)
                if (!has_mask || mask->valid(j, m))
                    nn.push_back(j);
            if (nn.empty())
                continue;
            double pred = 0.0;
            if (weighting == ml::KnnWeighting::Uniform) {
                double acc = 0.0;
                for (std::size_t j : nn)
                    acc += scores(j, m);
                pred = acc / static_cast<double>(nn.size());
            } else {
                double wsum = 0.0;
                double acc = 0.0;
                for (std::size_t j : nn) {
                    const double wj = 1.0 / (std::sqrt(row_d2[j]) + 1e-9);
                    wsum += wj;
                    acc += wj * scores(j, m);
                }
                pred = acc / wsum;
            }
            const double actual = scores(i, m);
            error_sum += std::fabs(pred - actual) / actual * 100.0;
            ++error_count;
        }
    }
    return -error_sum / static_cast<double>(error_count);
}

/** Training inputs of one fitness configuration. */
struct FitnessWorld
{
    std::string name;
    linalg::Matrix characteristics;
    dataset::PerfDatabase db;
};

/**
 * The paper's 29 benchmarks and a scaled 80-benchmark suite, each on
 * 60 training machines, dense and with 30% of the cells hidden.
 */
std::vector<FitnessWorld>
fitnessWorlds()
{
    std::vector<std::size_t> machines;
    for (std::size_t m = 0; m < 60; ++m)
        machines.push_back(m);
    const dataset::PerfDatabase paper = dataset::makePaperDataset(2011);
    const linalg::Matrix paper_chars =
        dataset::MicaGenerator().generateForCatalog();
    dataset::ScaledSpecConfig scaled_config;
    scaled_config.machines = 60;
    scaled_config.benchmarks = 80;
    const dataset::ScaledSpecGenerator scaled(scaled_config);
    const dataset::PerfDatabase scaled_db = scaled.generate();
    const linalg::Matrix scaled_chars =
        dataset::MicaGenerator().generate(scaled.benchmarkProfiles());

    std::vector<FitnessWorld> worlds;
    worlds.push_back({"paper", paper_chars, paper.selectMachines(machines)});
    worlds.push_back(
        {"paper-masked", paper_chars,
         dataset::applyMissingness(paper, 0.3, 7).selectMachines(machines)});
    worlds.push_back({"scaled", scaled_chars, scaled_db});
    worlds.push_back({"scaled-masked", scaled_chars,
                      dataset::applyMissingness(scaled_db, 0.3, 7)});
    return worlds;
}

/**
 * Random genomes in [0, 1], with repeats and exact boundary genes so
 * that neighbour lists (and whole genomes) coincide, as they do in a
 * converging GA population.
 */
std::vector<std::vector<double>>
randomGenomes(std::size_t count, std::size_t length, std::uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<std::vector<double>> genomes;
    for (std::size_t g = 0; g < count; ++g) {
        if (g % 4 == 3) {
            genomes.push_back(genomes[rng.index(genomes.size())]);
            continue;
        }
        std::vector<double> w(length);
        for (double &v : w)
            v = rng.bernoulli(0.15) ? (rng.bernoulli(0.5) ? 0.0 : 1.0)
                                    : rng.uniform(0.0, 1.0);
        genomes.push_back(std::move(w));
    }
    return genomes;
}

TEST(GaKnn, BatchFitnessMatchesPerGenomeOracle)
{
    TierGuard guard;
    const std::vector<FitnessWorld> worlds = fitnessWorlds();
    for (const simd::Tier tier : availableTiers()) {
        simd::setTier(tier);
        for (const FitnessWorld &world : worlds) {
            const dataset::ScoreMask *mask =
                world.db.masked() ? &world.db.mask() : nullptr;
            for (const auto weighting : {ml::KnnWeighting::Uniform,
                                         ml::KnnWeighting::InverseDistance}) {
                SCOPED_TRACE(std::string(simd::tierName(tier)) + " " +
                             world.name +
                             (weighting == ml::KnnWeighting::Uniform
                                  ? " uniform"
                                  : " inverse-distance"));
                const auto genomes = randomGenomes(
                    24, world.characteristics.cols(), 11);
                std::vector<const std::vector<double> *> batch;
                for (const auto &g : genomes)
                    batch.push_back(&g);
                baseline::GaKnnFitness fitness(world.characteristics,
                                               world.db.scores(), 10,
                                               weighting, mask);
                std::vector<double> scores(batch.size());
                const std::size_t distinct =
                    fitness.evaluate(batch, scores.data());
                // Repeated genomes share their neighbour lists.
                EXPECT_LT(distinct,
                          batch.size() * world.characteristics.rows());
                for (std::size_t g = 0; g < genomes.size(); ++g)
                    EXPECT_EQ(scores[g],
                              referenceFitness(world.characteristics,
                                               world.db.scores(), mask, 10,
                                               weighting, genomes[g]))
                        << "genome " << g;
                // A one-genome batch is the same function.
                double single = 0.0;
                fitness.evaluate({batch[1]}, &single);
                EXPECT_EQ(single, scores[1]);
            }
        }
    }
}

/** FNV-1a over the bits of the GA's history and best genome. */
std::uint64_t
trajectoryDigest(const ml::GaResult &result)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&](double v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        for (int b = 0; b < 8; ++b) {
            h ^= (bits >> (8 * b)) & 0xffu;
            h *= 0x100000001b3ULL;
        }
    };
    for (double v : result.history)
        mix(v);
    for (double v : result.bestGenome)
        mix(v);
    return h;
}

TEST(GaKnn, TrainingTrajectoryMatchesPinnedBits)
{
    // GA histories and best genomes of the per-genome GA (every
    // individual re-scored every generation), pinned before the
    // population-wide fitness and carried scores replaced it: paper
    // benchmarks, 60 training machines, population 16, 10 generations.
    struct Golden
    {
        bool masked;
        ml::KnnWeighting weighting;
        std::uint64_t digest;
        double bestFitness;
    };
    const Golden goldens[] = {
        {false, ml::KnnWeighting::Uniform, 0x1388d4ad66b1c4d3ULL,
         -0x1.bb9b9a9673a85p+3},
        {false, ml::KnnWeighting::InverseDistance, 0xedbb191db0f73dd9ULL,
         -0x1.c7d73f771e70bp+3},
        {true, ml::KnnWeighting::Uniform, 0x2a3e7444f538e11eULL,
         -0x1.c8dcc660b3e1bp+3},
        {true, ml::KnnWeighting::InverseDistance, 0x9382d502d9973f11ULL,
         -0x1.d108866ca9134p+3},
    };
    const std::vector<FitnessWorld> worlds = fitnessWorlds();
    TierGuard guard;
    for (const simd::Tier tier : availableTiers()) {
        simd::setTier(tier);
        for (const std::size_t threads : {1u, 4u}) {
            SCOPED_TRACE(std::string(simd::tierName(tier)) + " threads " +
                         std::to_string(threads));
            // The four trainings run concurrently: nothing is shared.
            std::vector<ml::GaResult> results(4);
            std::vector<std::vector<double>> weights(4);
            util::parallelFor(threads, 4, [&](std::size_t c) {
                const FitnessWorld &world = worlds[goldens[c].masked ? 1 : 0];
                const dataset::ScoreMask *mask =
                    world.db.masked() ? &world.db.mask() : nullptr;
                baseline::GaKnnConfig config;
                config.weighting = goldens[c].weighting;
                config.ga.populationSize = 16;
                config.ga.generations = 10;
                baseline::GaKnnFitness fitness(world.characteristics,
                                               world.db.scores(), config.k,
                                               config.weighting, mask);
                const std::size_t n_char = world.characteristics.cols();
                const ml::GeneticAlgorithm ga(
                    config.ga, std::vector<double>(n_char, 0.0),
                    std::vector<double>(n_char, 1.0));
                util::Rng rng(config.seed);
                results[c] = ga.optimize(
                    [&](const std::vector<const std::vector<double> *> &g,
                        double *scores, obs::TraceSpan &) {
                        fitness.evaluate(g, scores);
                    },
                    rng);
                baseline::GaKnnModel model(config);
                model.train(world.characteristics, world.db.scores(), mask);
                weights[c] = model.weights();
            });
            for (std::size_t c = 0; c < 4; ++c) {
                SCOPED_TRACE("config " + std::to_string(c));
                EXPECT_EQ(trajectoryDigest(results[c]), goldens[c].digest);
                EXPECT_EQ(results[c].bestFitness, goldens[c].bestFitness);
                EXPECT_EQ(results[c].history.size(), 10u);
                EXPECT_EQ(weights[c], results[c].bestGenome);
                EXPECT_EQ(results[c].evaluations + results[c].carried,
                          16u * 11u);
            }
        }
    }
}

TEST(GaKnn, RejectsNonFiniteOrNonPositiveTrainingScores)
{
    util::Rng rng(3);
    linalg::Matrix chars(6, 2);
    linalg::Matrix scores(6, 4);
    for (std::size_t b = 0; b < 6; ++b) {
        chars(b, 0) = rng.uniform(0.0, 1.0);
        chars(b, 1) = rng.uniform(0.0, 1.0);
        for (std::size_t m = 0; m < 4; ++m)
            scores(b, m) = rng.uniform(5.0, 50.0);
    }
    baseline::GaKnnConfig config = fastConfig();
    config.k = 2;
    for (const double bad : {std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(), 0.0,
                             -3.0}) {
        linalg::Matrix poisoned = scores;
        poisoned(2, 1) = bad;
        baseline::GaKnnModel model(config);
        EXPECT_THROW(model.train(chars, poisoned), util::InvalidArgument)
            << bad;
        EXPECT_FALSE(model.trained());

        // Hidden by the mask, the same cell is never read.
        dataset::ScoreMask mask(6, 4);
        mask.set(2, 1, false);
        baseline::GaKnnModel masked(config);
        masked.train(chars, poisoned, &mask);
        ASSERT_EQ(masked.weights().size(), 2u);
        EXPECT_EQ(masked.predictApp(chars.row(2), chars, scores, 2).size(),
                  4u);
    }
    linalg::Matrix bad_chars = chars;
    bad_chars(0, 1) = std::numeric_limits<double>::quiet_NaN();
    baseline::GaKnnModel model(config);
    EXPECT_THROW(model.train(bad_chars, scores), util::InvalidArgument);
}

/**
 * The per-machine gather predictApp's row sweep replaced: each
 * machine's neighbour scores read down a strided column and combined
 * one at a time.
 */
std::vector<double>
gatherPredict(const baseline::GaKnnModel &model,
              const std::vector<double> &app, const linalg::Matrix &chars,
              const linalg::Matrix &scores, std::size_t exclude)
{
    const auto nn = model.neighbors(app, chars, exclude);
    std::vector<double> out(scores.cols());
    for (std::size_t m = 0; m < scores.cols(); ++m) {
        double wsum = 0.0;
        double acc = 0.0;
        for (std::size_t j : nn) {
            if (model.config().weighting == ml::KnnWeighting::Uniform) {
                acc += scores(j, m);
                continue;
            }
            const double d2 = simd::weightedSquaredDistance(
                app.data(), chars.rowData(j), model.weights().data(),
                chars.cols());
            const double w = 1.0 / (std::sqrt(d2) + 1e-9);
            wsum += w;
            acc += w * scores(j, m);
        }
        out[m] = model.config().weighting == ml::KnnWeighting::Uniform
                     ? acc / static_cast<double>(nn.size())
                     : acc / wsum;
    }
    return out;
}

TEST(GaKnn, ScaledSweepPredictMatchesReferenceBitForBit)
{
    linalg::Matrix chars, scores;
    randomWorld(24, 5, 401, 7, chars, scores);

    for (const auto weighting : {ml::KnnWeighting::Uniform,
                                 ml::KnnWeighting::InverseDistance}) {
        baseline::GaKnnConfig config = fastConfig();
        config.k = 6;
        config.weighting = weighting;
        baseline::GaKnnModel trained(config);
        trained.train(chars, scores);
        const std::vector<double> app = chars.row(0);
        const auto ref_pred = gatherPredict(trained, app, chars, scores, 0);

        for (const std::size_t tile : {1u, 7u, 64u, 4096u}) {
            for (const std::size_t threads : {1u, 4u, 0u}) {
                baseline::GaKnnConfig sweep_config = config;
                sweep_config.predictTile = tile;
                sweep_config.predictThreads = threads;
                baseline::GaKnnModel sweep(sweep_config);
                sweep.restore(trained.weights(), trained.trainingFitness());
                const auto sweep_pred =
                    sweep.predictApp(app, chars, scores, 0);
                EXPECT_EQ(ref_pred, sweep_pred)
                    << "tile " << tile << " threads " << threads;
            }
        }
    }
}

} // namespace
