/**
 * @file
 * Unit tests for Kendall's tau-b.
 */

#include <gtest/gtest.h>

#include "stats/correlation.h"
#include "stats/kendall.h"
#include "util/error.h"
#include "util/rng.h"

namespace
{

using namespace dtrank;

TEST(KendallTau, PerfectAgreement)
{
    EXPECT_DOUBLE_EQ(stats::kendallTau({1, 2, 3, 4}, {10, 20, 30, 40}),
                     1.0);
}

TEST(KendallTau, PerfectDisagreement)
{
    EXPECT_DOUBLE_EQ(stats::kendallTau({1, 2, 3, 4}, {9, 7, 5, 3}),
                     -1.0);
}

TEST(KendallTau, KnownHandComputedValue)
{
    // Pairs: (1,1),(2,3),(3,2): concordant = 2, discordant = 1,
    // tau = (2-1)/3.
    EXPECT_NEAR(stats::kendallTau({1, 2, 3}, {1, 3, 2}), 1.0 / 3.0,
                1e-12);
}

TEST(KendallTau, ConstantSampleIsZero)
{
    EXPECT_DOUBLE_EQ(stats::kendallTau({5, 5, 5}, {1, 2, 3}), 0.0);
    EXPECT_DOUBLE_EQ(stats::kendallTau({1, 2, 3}, {7, 7, 7}), 0.0);
}

TEST(KendallTau, TieCorrectionKeepsBoundsTight)
{
    // With ties, tau-b still reaches 1 for a perfectly concordant
    // relation among the untied pairs.
    const double tau = stats::kendallTau({1, 1, 2, 3}, {5, 5, 6, 7});
    EXPECT_DOUBLE_EQ(tau, 1.0);
}

TEST(KendallTau, MonotoneTransformInvariant)
{
    util::Rng rng(1);
    std::vector<double> x(25);
    std::vector<double> y(25);
    for (std::size_t i = 0; i < 25; ++i) {
        x[i] = rng.uniform(0.0, 10.0);
        y[i] = rng.uniform(0.0, 10.0);
    }
    const double base = stats::kendallTau(x, y);
    std::vector<double> y_exp(y);
    for (double &v : y_exp)
        v = std::exp(v);
    EXPECT_NEAR(stats::kendallTau(x, y_exp), base, 1e-12);
}

TEST(KendallTau, AgreesInSignWithSpearman)
{
    util::Rng rng(2);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<double> x(15);
        std::vector<double> y(15);
        const double slope = rng.uniform(-2.0, 2.0);
        for (std::size_t i = 0; i < 15; ++i) {
            x[i] = rng.uniform(0.0, 10.0);
            y[i] = slope * x[i] + rng.gaussian(0.0, 1.0);
        }
        const double tau = stats::kendallTau(x, y);
        const double rho = stats::spearman(x, y);
        if (std::fabs(rho) > 0.3) {
            EXPECT_GT(tau * rho, 0.0) << "trial " << trial;
        }
        EXPECT_LE(std::fabs(tau), 1.0);
    }
}

TEST(KendallTau, Validation)
{
    EXPECT_THROW(stats::kendallTau({1}, {1}), util::InvalidArgument);
    EXPECT_THROW(stats::kendallTau({1, 2}, {1}), util::InvalidArgument);
}

} // namespace
