/**
 * @file
 * Unit and property tests for the deterministic Rng wrapper.
 */

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "util/error.h"
#include "util/rng.h"

namespace
{

using namespace dtrank;

TEST(Rng, SameSeedSameStream)
{
    util::Rng a(42);
    util::Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer)
{
    util::Rng a(1);
    util::Rng b(2);
    bool any_diff = false;
    for (int i = 0; i < 10; ++i)
        if (a.uniform() != b.uniform())
            any_diff = true;
    EXPECT_TRUE(any_diff);
}

TEST(Rng, ReseedRestartsStream)
{
    util::Rng a(7);
    const double first = a.uniform();
    a.uniform();
    a.seed(7);
    EXPECT_DOUBLE_EQ(a.uniform(), first);
}

TEST(Rng, UniformStaysInRange)
{
    util::Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform(-2.5, 4.0);
        EXPECT_GE(v, -2.5);
        EXPECT_LT(v, 4.0);
    }
}

TEST(Rng, UniformRejectsEmptyRange)
{
    util::Rng rng(1);
    EXPECT_THROW(rng.uniform(1.0, 1.0), util::InvalidArgument);
    EXPECT_THROW(rng.uniform(2.0, 1.0), util::InvalidArgument);
}

TEST(Rng, IndexWithinBounds)
{
    util::Rng rng(6);
    for (int i = 0; i < 500; ++i)
        EXPECT_LT(rng.index(7), 7u);
    EXPECT_THROW(rng.index(0), util::InvalidArgument);
}

TEST(Rng, GaussianMomentsRoughlyCorrect)
{
    util::Rng rng(8);
    double sum = 0.0;
    double sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.gaussian(3.0, 2.0);
        sum += v;
        sq += v * v;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 3.0, 0.1);
    EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, GaussianZeroStddevIsDeterministic)
{
    util::Rng rng(9);
    EXPECT_DOUBLE_EQ(rng.gaussian(5.0, 0.0), 5.0);
}

TEST(Rng, GaussianRejectsNegativeStddev)
{
    util::Rng rng(9);
    EXPECT_THROW(rng.gaussian(0.0, -1.0), util::InvalidArgument);
}

TEST(Rng, BernoulliExtremes)
{
    util::Rng rng(10);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
    EXPECT_THROW(rng.bernoulli(-0.1), util::InvalidArgument);
    EXPECT_THROW(rng.bernoulli(1.1), util::InvalidArgument);
}

TEST(Rng, ShuffleIsPermutation)
{
    util::Rng rng(11);
    std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    std::vector<int> original = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, original);
}

TEST(Rng, SampleWithoutReplacementDistinct)
{
    util::Rng rng(12);
    for (int trial = 0; trial < 50; ++trial) {
        const auto sample = rng.sampleWithoutReplacement(20, 8);
        EXPECT_EQ(sample.size(), 8u);
        std::set<std::size_t> uniq(sample.begin(), sample.end());
        EXPECT_EQ(uniq.size(), 8u);
        for (std::size_t s : sample)
            EXPECT_LT(s, 20u);
    }
}

TEST(Rng, SampleWholePopulation)
{
    util::Rng rng(13);
    const auto sample = rng.sampleWithoutReplacement(5, 5);
    std::set<std::size_t> uniq(sample.begin(), sample.end());
    EXPECT_EQ(uniq.size(), 5u);
}

TEST(Rng, SampleRejectsOversizedRequest)
{
    util::Rng rng(14);
    EXPECT_THROW(rng.sampleWithoutReplacement(3, 4),
                 util::InvalidArgument);
}

TEST(Rng, SampleZeroIsEmpty)
{
    util::Rng rng(15);
    EXPECT_TRUE(rng.sampleWithoutReplacement(3, 0).empty());
}

/** Every index should be sampled roughly uniformly often. */
TEST(Rng, SampleWithoutReplacementIsUnbiased)
{
    util::Rng rng(16);
    std::vector<int> counts(10, 0);
    const int trials = 5000;
    for (int t = 0; t < trials; ++t)
        for (std::size_t i : rng.sampleWithoutReplacement(10, 3))
            ++counts[i];
    // Expected count per index: trials * 3 / 10 = 1500.
    for (int c : counts)
        EXPECT_NEAR(c, 1500, 150);
}

} // namespace
