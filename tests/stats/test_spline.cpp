/**
 * @file
 * Unit tests for the restricted cubic spline regression.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "stats/regression.h"
#include "stats/spline.h"
#include "util/error.h"
#include "util/rng.h"

namespace
{

using namespace dtrank;

TEST(CubicSplineBasis, ValidatesKnots)
{
    EXPECT_THROW(stats::CubicSplineBasis({1.0, 2.0}),
                 util::InvalidArgument);
    EXPECT_THROW(stats::CubicSplineBasis({1.0, 1.0, 2.0}),
                 util::InvalidArgument);
    EXPECT_THROW(stats::CubicSplineBasis({2.0, 1.0, 3.0}),
                 util::InvalidArgument);
}

TEST(CubicSplineBasis, DimensionIsKnotsMinusOne)
{
    const stats::CubicSplineBasis basis({0.0, 1.0, 2.0, 3.0});
    EXPECT_EQ(basis.dimension(), 3u);
    EXPECT_EQ(basis.evaluate(1.5).size(), 3u);
}

TEST(CubicSplineBasis, FirstColumnIsIdentity)
{
    const stats::CubicSplineBasis basis({0.0, 1.0, 2.0});
    for (double x : {-3.0, 0.5, 4.2})
        EXPECT_DOUBLE_EQ(basis.evaluate(x)[0], x);
}

TEST(CubicSplineBasis, LinearTailsBeyondBoundaryKnots)
{
    // The restricted basis is linear outside the boundary knots: second
    // differences of each basis column vanish out there.
    const stats::CubicSplineBasis basis({0.0, 1.0, 2.0, 3.0});
    const double h = 0.25;
    for (double x : {-4.0, 8.0}) {
        const auto lo = basis.evaluate(x - h);
        const auto mid = basis.evaluate(x);
        const auto hi = basis.evaluate(x + h);
        for (std::size_t j = 0; j < basis.dimension(); ++j) {
            const double second = lo[j] - 2.0 * mid[j] + hi[j];
            EXPECT_NEAR(second, 0.0, 1e-9) << "column " << j;
        }
    }
}

TEST(CubicSplineBasis, FromQuantilesCoversTheSample)
{
    const std::vector<double> sample = {1, 9, 3, 7, 5, 2, 8};
    const auto basis =
        stats::CubicSplineBasis::fromQuantiles(sample, 4);
    EXPECT_DOUBLE_EQ(basis.knots().front(), 1.0);
    EXPECT_DOUBLE_EQ(basis.knots().back(), 9.0);
    EXPECT_THROW(
        stats::CubicSplineBasis::fromQuantiles({1.0, 1.0, 1.0}, 3),
        util::InvalidArgument);
}

TEST(SplineRegression, FitsAStraightLineExactly)
{
    std::vector<double> x;
    std::vector<double> y;
    for (int i = 0; i <= 10; ++i) {
        x.push_back(static_cast<double>(i));
        y.push_back(2.0 * i + 1.0);
    }
    const stats::SplineRegression fit(x, y, 4);
    EXPECT_FALSE(fit.isLinearFallback());
    EXPECT_NEAR(fit.rSquared(), 1.0, 1e-9);
    EXPECT_NEAR(fit.predict(3.5), 8.0, 1e-6);
    // Linear tails: extrapolation continues the line.
    EXPECT_NEAR(fit.predict(20.0), 41.0, 1e-4);
}

TEST(SplineRegression, CapturesCurvatureALineCannot)
{
    std::vector<double> x;
    std::vector<double> y;
    for (int i = 0; i <= 20; ++i) {
        const double v = 0.25 * i;
        x.push_back(v);
        y.push_back(std::sin(v));
    }
    const stats::SplineRegression spline(x, y, 5);
    const stats::SimpleLinearRegression line(x, y);
    EXPECT_LT(spline.residualSumSquares(),
              0.2 * line.residualSumSquares());
    EXPECT_NEAR(spline.predict(1.5), std::sin(1.5), 0.05);
}

TEST(SplineRegression, FallsBackToLineOnDegenerateData)
{
    // Two distinct x values cannot support 3 knots.
    const stats::SplineRegression fit({1, 1, 2, 2}, {3, 3, 5, 5}, 4);
    EXPECT_TRUE(fit.isLinearFallback());
    EXPECT_NEAR(fit.predict(1.5), 4.0, 1e-9);
}

TEST(SplineRegression, Validation)
{
    EXPECT_THROW(stats::SplineRegression({1.0}, {1.0}),
                 util::InvalidArgument);
    EXPECT_THROW(stats::SplineRegression({1.0, 2.0}, {1.0}),
                 util::InvalidArgument);
}

class SplineRecoveryTest : public ::testing::TestWithParam<int>
{
};

TEST_P(SplineRecoveryTest, TracksSmoothRandomTargets)
{
    util::Rng rng(700 + static_cast<std::uint64_t>(GetParam()));
    const double a = rng.uniform(-1.0, 1.0);
    const double b = rng.uniform(-0.5, 0.5);
    const double c = rng.uniform(-0.1, 0.1);
    std::vector<double> x;
    std::vector<double> y;
    for (int i = 0; i <= 30; ++i) {
        const double v = 0.2 * i;
        x.push_back(v);
        y.push_back(a + b * v + c * v * v);
    }
    const stats::SplineRegression fit(x, y, 5);
    // In-range predictions of a quadratic should be near exact.
    for (double probe : {0.7, 2.3, 4.9})
        EXPECT_NEAR(fit.predict(probe),
                    a + b * probe + c * probe * probe, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplineRecoveryTest,
                         ::testing::Range(0, 10));

} // namespace
