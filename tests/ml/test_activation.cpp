/**
 * @file
 * Unit tests for the activation functions and their derivatives.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "ml/activation.h"

namespace
{

using namespace dtrank;
using ml::Activation;

TEST(Activation, SigmoidValues)
{
    EXPECT_DOUBLE_EQ(ml::activate(Activation::Sigmoid, 0.0), 0.5);
    EXPECT_NEAR(ml::activate(Activation::Sigmoid, 100.0), 1.0, 1e-12);
    EXPECT_NEAR(ml::activate(Activation::Sigmoid, -100.0), 0.0, 1e-12);
}

TEST(Activation, TanhValues)
{
    EXPECT_DOUBLE_EQ(ml::activate(Activation::Tanh, 0.0), 0.0);
    EXPECT_NEAR(ml::activate(Activation::Tanh, 1.0), std::tanh(1.0),
                1e-15);
}

TEST(Activation, ReluValues)
{
    EXPECT_DOUBLE_EQ(ml::activate(Activation::Relu, -2.0), 0.0);
    EXPECT_DOUBLE_EQ(ml::activate(Activation::Relu, 3.5), 3.5);
}

TEST(Activation, LinearIsIdentity)
{
    EXPECT_DOUBLE_EQ(ml::activate(Activation::Linear, -7.25), -7.25);
}

class DerivativeTest : public ::testing::TestWithParam<Activation>
{
};

/** Analytic derivative must match a finite-difference estimate. */
TEST_P(DerivativeTest, MatchesFiniteDifference)
{
    const Activation a = GetParam();
    for (double x : {-1.5, -0.3, 0.4, 1.2}) {
        if (a == Activation::Relu && std::fabs(x) < 0.1)
            continue; // not differentiable at 0
        const double h = 1e-6;
        const double numeric =
            (ml::activate(a, x + h) - ml::activate(a, x - h)) / (2 * h);
        const double y = ml::activate(a, x);
        EXPECT_NEAR(ml::activateDerivativeFromOutput(a, y), numeric,
                    1e-5)
            << "activation " << static_cast<int>(a) << " at x=" << x;
    }
}

INSTANTIATE_TEST_SUITE_P(All, DerivativeTest,
                         ::testing::Values(Activation::Sigmoid,
                                           Activation::Tanh,
                                           Activation::Relu,
                                           Activation::Linear));

} // namespace
