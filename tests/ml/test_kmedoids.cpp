/**
 * @file
 * Unit tests for k-medoids clustering.
 */

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "ml/distance.h"
#include "ml/kmedoids.h"
#include "util/error.h"

namespace
{

using namespace dtrank;

std::vector<std::vector<double>>
twoBlobs()
{
    // Two well-separated blobs around (0,0) and (100,100).
    return {
        {0, 0},     {1, 0},     {0, 1},     {1, 1},
        {100, 100}, {101, 100}, {100, 101}, {101, 101},
    };
}

TEST(KMedoids, RecoverWellSeparatedClusters)
{
    const auto points = twoBlobs();
    const ml::KMedoids clusterer;
    util::Rng rng(1);
    const auto result = clusterer.cluster(points, 2, rng);

    ASSERT_EQ(result.medoids.size(), 2u);
    ASSERT_EQ(result.assignment.size(), points.size());
    // First four points together, last four together.
    for (std::size_t i = 1; i < 4; ++i)
        EXPECT_EQ(result.assignment[i], result.assignment[0]);
    for (std::size_t i = 5; i < 8; ++i)
        EXPECT_EQ(result.assignment[i], result.assignment[4]);
    EXPECT_NE(result.assignment[0], result.assignment[4]);
    // One medoid per blob.
    EXPECT_LT(std::min(result.medoids[0], result.medoids[1]), 4u);
    EXPECT_GE(std::max(result.medoids[0], result.medoids[1]), 4u);
}

TEST(KMedoids, MedoidsAreMembersOfTheirClusters)
{
    const auto points = twoBlobs();
    const ml::KMedoids clusterer;
    util::Rng rng(2);
    const auto result = clusterer.cluster(points, 3, rng);
    for (std::size_t c = 0; c < result.medoids.size(); ++c)
        EXPECT_EQ(result.assignment[result.medoids[c]], c);
}

TEST(KMedoids, KEqualsNMakesEveryPointAMedoid)
{
    const std::vector<std::vector<double>> points = {{0}, {5}, {9}};
    const ml::KMedoids clusterer;
    util::Rng rng(3);
    const auto result = clusterer.cluster(points, 3, rng);
    const std::set<std::size_t> medoids(result.medoids.begin(),
                                        result.medoids.end());
    EXPECT_EQ(medoids.size(), 3u);
    EXPECT_NEAR(result.totalCost, 0.0, 1e-12);
}

TEST(KMedoids, SingleClusterPicksCentralPoint)
{
    const std::vector<std::vector<double>> points = {
        {0.0}, {10.0}, {5.0}, {6.0}};
    const ml::KMedoids clusterer;
    util::Rng rng(4);
    const auto result = clusterer.cluster(points, 1, rng);
    // The medoid minimizing total distance is 5.0 (index 2):
    // cost(5) = 5+5+1 = 11 < cost(6) = 6+4+1 = 11 ... tie; accept
    // either of the central points.
    EXPECT_TRUE(result.medoids[0] == 2 || result.medoids[0] == 3);
}

TEST(KMedoids, DeterministicGivenSeed)
{
    const auto points = twoBlobs();
    const ml::KMedoids clusterer;
    util::Rng rng1(7);
    util::Rng rng2(7);
    const auto a = clusterer.cluster(points, 2, rng1);
    const auto b = clusterer.cluster(points, 2, rng2);
    EXPECT_EQ(a.medoids, b.medoids);
    EXPECT_EQ(a.assignment, b.assignment);
}

TEST(KMedoids, MedoidsReturnedSorted)
{
    const auto points = twoBlobs();
    const ml::KMedoids clusterer;
    util::Rng rng(11);
    const auto result = clusterer.cluster(points, 3, rng);
    EXPECT_TRUE(std::is_sorted(result.medoids.begin(),
                               result.medoids.end()));
}

TEST(KMedoids, ClusterFromDistancesMatchesPointApi)
{
    const auto points = twoBlobs();
    const auto dist = ml::pairwiseDistances(points);
    const ml::KMedoids clusterer;
    util::Rng rng1(5);
    util::Rng rng2(5);
    const auto a = clusterer.cluster(points, 2, rng1);
    const auto b = clusterer.clusterFromDistances(dist, 2, rng2);
    EXPECT_EQ(a.medoids, b.medoids);
}

TEST(KMedoids, Validation)
{
    const ml::KMedoids clusterer;
    util::Rng rng(1);
    EXPECT_THROW(clusterer.cluster({}, 1, rng),
                 util::InvalidArgument);
    EXPECT_THROW(clusterer.cluster({{1.0}}, 2, rng),
                 util::InvalidArgument);
    EXPECT_THROW(clusterer.cluster({{1.0}}, 0, rng),
                 util::InvalidArgument);
    // Non-square distance matrix.
    EXPECT_THROW(
        clusterer.clusterFromDistances({{0.0, 1.0}}, 1, rng),
        util::InvalidArgument);
}

TEST(KMedoids, CostDecreasesWithMoreClusters)
{
    const auto points = twoBlobs();
    const ml::KMedoids clusterer;
    double prev_cost = 1e18;
    for (std::size_t k = 1; k <= 4; ++k) {
        util::Rng rng(20 + k);
        const auto result = clusterer.cluster(points, k, rng);
        EXPECT_LE(result.totalCost, prev_cost + 1e-9);
        prev_cost = result.totalCost;
    }
}

} // namespace
