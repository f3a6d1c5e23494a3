/**
 * @file
 * Unit and property tests for the regression models.
 */

#include <gtest/gtest.h>

#include "stats/regression.h"
#include "util/error.h"
#include "util/rng.h"

namespace
{

using namespace dtrank;

TEST(SimpleLinearRegression, ExactLine)
{
    const stats::SimpleLinearRegression fit({1, 2, 3}, {5, 7, 9});
    EXPECT_NEAR(fit.slope(), 2.0, 1e-12);
    EXPECT_NEAR(fit.intercept(), 3.0, 1e-12);
    EXPECT_NEAR(fit.rSquared(), 1.0, 1e-12);
    EXPECT_NEAR(fit.residualSumSquares(), 0.0, 1e-12);
    EXPECT_NEAR(fit.predict(10.0), 23.0, 1e-12);
    EXPECT_EQ(fit.sampleSize(), 3u);
}

TEST(SimpleLinearRegression, KnownNoisyFit)
{
    // Classic example: y on x with known OLS solution.
    const std::vector<double> x = {1, 2, 3, 4, 5};
    const std::vector<double> y = {2, 2, 3, 5, 5};
    const stats::SimpleLinearRegression fit(x, y);
    // slope = Sxy/Sxx = 9/10, intercept = 3.4 - 0.9*3 = 0.7.
    EXPECT_NEAR(fit.slope(), 0.9, 1e-12);
    EXPECT_NEAR(fit.intercept(), 0.7, 1e-12);
    EXPECT_GT(fit.rSquared(), 0.8);
    EXPECT_LT(fit.rSquared(), 1.0);
}

TEST(SimpleLinearRegression, ConstantPredictorFallsBackToMean)
{
    const stats::SimpleLinearRegression fit({2, 2, 2}, {1, 5, 9});
    EXPECT_DOUBLE_EQ(fit.slope(), 0.0);
    EXPECT_DOUBLE_EQ(fit.intercept(), 5.0);
    EXPECT_DOUBLE_EQ(fit.predict(100.0), 5.0);
}

TEST(SimpleLinearRegression, ConstantResponsePerfectFit)
{
    const stats::SimpleLinearRegression fit({1, 2, 3}, {4, 4, 4});
    EXPECT_NEAR(fit.slope(), 0.0, 1e-12);
    EXPECT_DOUBLE_EQ(fit.rSquared(), 1.0);
}

TEST(SimpleLinearRegression, Validation)
{
    EXPECT_THROW(stats::SimpleLinearRegression({1}, {1}),
                 util::InvalidArgument);
    EXPECT_THROW(stats::SimpleLinearRegression({1, 2}, {1}),
                 util::InvalidArgument);
}

class SlrRecoveryTest : public ::testing::TestWithParam<int>
{
};

TEST_P(SlrRecoveryTest, RecoversRandomLines)
{
    util::Rng rng(200 + static_cast<std::uint64_t>(GetParam()));
    const double a = rng.uniform(-5.0, 5.0);
    const double b = rng.uniform(-3.0, 3.0);
    std::vector<double> x(50);
    std::vector<double> y(50);
    for (std::size_t i = 0; i < 50; ++i) {
        x[i] = rng.uniform(-10.0, 10.0);
        y[i] = a + b * x[i];
    }
    const stats::SimpleLinearRegression fit(x, y);
    EXPECT_NEAR(fit.intercept(), a, 1e-9);
    EXPECT_NEAR(fit.slope(), b, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlrRecoveryTest, ::testing::Range(0, 10));

TEST(MultipleLinearRegression, RecoversPlane)
{
    // y = 1 + 2*x1 - 3*x2.
    linalg::Matrix x{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 1}};
    std::vector<double> y;
    for (std::size_t r = 0; r < x.rows(); ++r)
        y.push_back(1.0 + 2.0 * x(r, 0) - 3.0 * x(r, 1));
    const stats::MultipleLinearRegression fit(x, y);
    EXPECT_NEAR(fit.intercept(), 1.0, 1e-10);
    const auto slopes = fit.slopes();
    EXPECT_NEAR(slopes[0], 2.0, 1e-10);
    EXPECT_NEAR(slopes[1], -3.0, 1e-10);
    EXPECT_NEAR(fit.rSquared(), 1.0, 1e-12);
    EXPECT_NEAR(fit.predict(std::vector<double>{3.0, 2.0}), 1.0, 1e-9);
}

TEST(MultipleLinearRegression, BatchPredictMatchesScalar)
{
    linalg::Matrix x{{1, 2}, {3, 4}, {5, 6}, {7, 9}};
    const std::vector<double> y = {1, 2, 3, 5};
    const stats::MultipleLinearRegression fit(x, y);
    const auto batch = fit.predict(x);
    for (std::size_t r = 0; r < x.rows(); ++r)
        EXPECT_DOUBLE_EQ(batch[r], fit.predict(x.row(r)));
}

TEST(MultipleLinearRegression, RidgeHandlesFewObservations)
{
    // 2 observations, 3 features: only solvable with ridge.
    linalg::Matrix x{{1, 2, 3}, {4, 5, 6}};
    const std::vector<double> y = {1, 2};
    EXPECT_THROW(stats::MultipleLinearRegression(x, y),
                 util::InvalidArgument);
    const stats::MultipleLinearRegression fit(x, y, 0.1);
    EXPECT_TRUE(std::isfinite(fit.intercept()));
}

TEST(MultipleLinearRegression, PredictValidatesFeatureCount)
{
    linalg::Matrix x{{1}, {2}, {3}};
    const stats::MultipleLinearRegression fit(x, {1, 2, 3});
    EXPECT_THROW(fit.predict(std::vector<double>{1.0, 2.0}), util::InvalidArgument);
}

} // namespace
