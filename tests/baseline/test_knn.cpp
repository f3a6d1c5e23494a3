/**
 * @file
 * Unit tests for the k-nearest-neighbour search and combine of the
 * GA-kNN baseline, at fixed (restored) characteristic weights: which
 * benchmarks are neighbours, in what order, and how their scores are
 * averaged under each KnnWeighting.
 */

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/ga_knn.h"
#include "linalg/matrix.h"
#include "util/error.h"

namespace
{

using namespace dtrank;

/** A model that weighs every characteristic 1 (plain Euclidean). */
baseline::GaKnnModel
unitModel(std::size_t k, std::size_t n_char,
          ml::KnnWeighting weighting = ml::KnnWeighting::Uniform)
{
    baseline::GaKnnConfig config;
    config.k = k;
    config.weighting = weighting;
    baseline::GaKnnModel model(config);
    model.restore(std::vector<double>(n_char, 1.0), 0.0);
    return model;
}

/** Scores of the candidates on one machine, as an N x 1 matrix. */
linalg::Matrix
oneMachine(const std::vector<double> &scores)
{
    linalg::Matrix m(scores.size(), 1);
    for (std::size_t i = 0; i < scores.size(); ++i)
        m(i, 0) = scores[i];
    return m;
}

/** The model's prediction for `query` on that one machine. */
double
predict(const baseline::GaKnnModel &model, const linalg::Matrix &chars,
        const std::vector<double> &scores,
        const std::vector<double> &query)
{
    return model.predictApp(query, chars, oneMachine(scores)).at(0);
}

TEST(Knn, ValidatesConstruction)
{
    baseline::GaKnnConfig config;
    config.k = 0;
    EXPECT_THROW(baseline::GaKnnModel{config}, util::InvalidArgument);
    baseline::GaKnnModel model;
    EXPECT_THROW(model.restore({}, 0.0), util::InvalidArgument);
}

TEST(Knn, ValidatesFit)
{
    const linalg::Matrix chars{{1.0}, {2.0}};
    baseline::GaKnnModel untrained;
    EXPECT_THROW(untrained.predictApp({0.0}, chars, oneMachine({1, 2})),
                 util::InvalidArgument);
    const auto model = unitModel(1, 1);
    // Score rows must align with the candidates, and the query and the
    // candidates must have the trained characteristic count.
    EXPECT_THROW(model.predictApp({0.0}, chars, oneMachine({1.0})),
                 util::InvalidArgument);
    EXPECT_THROW(model.predictApp({0.0, 1.0}, chars, oneMachine({1, 2})),
                 util::InvalidArgument);
    EXPECT_THROW(model.neighbors({0.0, 1.0}, linalg::Matrix{{1.0, 2.0}}),
                 util::InvalidArgument);
}

TEST(Knn, OneNearestNeighborIsExactLookup)
{
    const auto model = unitModel(1, 1);
    const linalg::Matrix chars{{0.0}, {1.0}, {2.0}};
    EXPECT_DOUBLE_EQ(predict(model, chars, {10, 20, 30}, {0.1}), 10.0);
    EXPECT_DOUBLE_EQ(predict(model, chars, {10, 20, 30}, {1.4}), 20.0);
    EXPECT_DOUBLE_EQ(predict(model, chars, {10, 20, 30}, {5.0}), 30.0);
}

TEST(Knn, UniformAveragesKNeighbors)
{
    const auto model = unitModel(2, 1, ml::KnnWeighting::Uniform);
    const linalg::Matrix chars{{0.0}, {1.0}, {10.0}};
    // Nearest two of 0.4 are 0.0 and 1.0 -> mean 15.
    EXPECT_DOUBLE_EQ(predict(model, chars, {10, 20, 90}, {0.4}), 15.0);
}

TEST(Knn, InverseDistanceWeightsCloserNeighborsMore)
{
    const auto model = unitModel(2, 1, ml::KnnWeighting::InverseDistance);
    const linalg::Matrix chars{{0.0}, {1.0}};
    const double near_zero = predict(model, chars, {10, 20}, {0.1});
    EXPECT_GT(near_zero, 10.0);
    EXPECT_LT(near_zero, 15.0); // pulled toward the closer target
}

TEST(Knn, ExactMatchDominatesInverseDistance)
{
    const auto model = unitModel(2, 1, ml::KnnWeighting::InverseDistance);
    const linalg::Matrix chars{{0.0}, {1.0}};
    EXPECT_NEAR(predict(model, chars, {10, 20}, {0.0}), 10.0, 1e-3);
}

TEST(Knn, KLargerThanTrainingSetUsesAll)
{
    const auto model = unitModel(10, 1);
    const linalg::Matrix chars{{0.0}, {1.0}};
    EXPECT_DOUBLE_EQ(predict(model, chars, {10, 20}, {0.0}), 15.0);
}

TEST(Knn, NearestIndicesOrderedByDistance)
{
    const auto model = unitModel(3, 1);
    const auto nn =
        model.neighbors({0.0}, linalg::Matrix{{5.0}, {1.0}, {3.0}, {10.0}});
    ASSERT_EQ(nn.size(), 3u);
    EXPECT_EQ(nn[0], 1u); // 1.0
    EXPECT_EQ(nn[1], 2u); // 3.0
    EXPECT_EQ(nn[2], 0u); // 5.0
}

TEST(Knn, DeterministicTieBreakByIndex)
{
    const auto model = unitModel(1, 1);
    // Both candidates are at distance 1 from the query; lower index wins.
    const auto nn = model.neighbors({0.0}, linalg::Matrix{{1.0}, {-1.0}});
    EXPECT_EQ(nn[0], 0u);
}

TEST(Knn, Accessors)
{
    const auto model = unitModel(4, 3);
    EXPECT_EQ(model.config().k, 4u);
    EXPECT_TRUE(model.trained());
    EXPECT_EQ(model.weights(), (std::vector<double>{1.0, 1.0, 1.0}));
}

TEST(Knn, MultidimensionalQueries)
{
    const auto model = unitModel(1, 2);
    const linalg::Matrix chars{{0, 0}, {10, 0}, {0, 10}};
    EXPECT_DOUBLE_EQ(predict(model, chars, {1, 2, 3}, {9, 1}), 2.0);
    EXPECT_DOUBLE_EQ(predict(model, chars, {1, 2, 3}, {1, 9}), 3.0);
}

} // namespace
