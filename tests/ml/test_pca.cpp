/**
 * @file
 * Unit and property tests for PCA.
 */

#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ml/pca.h"
#include "util/error.h"
#include "util/rng.h"

namespace
{

using namespace dtrank;
using linalg::Matrix;

/**
 * The first component's loadings at unit length, read through the
 * affine transform(): loading i is proportional to transform(e_i) -
 * transform(0) times feature i's scale (1 unless standardized).
 */
std::vector<double>
firstLoadings(const ml::Pca &pca, const std::vector<double> &scales)
{
    const std::size_t n = scales.size();
    const std::vector<double> zero(n, 0.0);
    const double base = pca.transform(zero, 1)[0];
    std::vector<double> v(n);
    double norm = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> unit(n, 0.0);
        unit[i] = 1.0;
        v[i] = (pca.transform(unit, 1)[0] - base) * scales[i];
        norm += v[i] * v[i];
    }
    for (double &x : v)
        x /= std::sqrt(norm);
    return v;
}

/** Sample standard deviation of each column of x. */
std::vector<double>
columnStddevs(const Matrix &x)
{
    std::vector<double> out(x.cols());
    for (std::size_t c = 0; c < x.cols(); ++c) {
        double mean = 0.0;
        for (std::size_t r = 0; r < x.rows(); ++r)
            mean += x(r, c);
        mean /= static_cast<double>(x.rows());
        double ss = 0.0;
        for (std::size_t r = 0; r < x.rows(); ++r)
            ss += (x(r, c) - mean) * (x(r, c) - mean);
        out[c] = std::sqrt(ss / static_cast<double>(x.rows() - 1));
    }
    return out;
}

TEST(Pca, RecoversADominantDirection)
{
    // Points along the diagonal of a 2D space with small noise: the
    // first component must be ~(1,1)/sqrt(2) and dominate.
    util::Rng rng(1);
    Matrix x(200, 2);
    for (std::size_t r = 0; r < 200; ++r) {
        const double t = rng.uniform(-5.0, 5.0);
        x(r, 0) = t + rng.gaussian(0.0, 0.05);
        x(r, 1) = t + rng.gaussian(0.0, 0.05);
    }
    ml::PcaConfig config;
    config.standardize = false;
    ml::Pca pca(config);
    pca.fit(x);

    const auto ratios = pca.explainedVarianceRatio();
    EXPECT_GT(ratios[0], 0.99);
    const auto v = firstLoadings(pca, {1.0, 1.0});
    const double v0 = v[0];
    const double v1 = v[1];
    EXPECT_NEAR(std::fabs(v0), 1.0 / std::sqrt(2.0), 0.01);
    EXPECT_NEAR(v0, v1, 0.01);
}

TEST(Pca, ExplainedVarianceRatiosSumToOne)
{
    util::Rng rng(2);
    Matrix x(50, 4);
    for (std::size_t r = 0; r < 50; ++r)
        for (std::size_t c = 0; c < 4; ++c)
            x(r, c) = rng.uniform(0.0, 10.0);
    ml::Pca pca{};
    pca.fit(x);
    double total = 0.0;
    for (double v : pca.explainedVarianceRatio())
        total += v;
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Pca, ComponentsForVariance)
{
    // One dominant direction plus noise: 1 component should explain
    // 90% of the variance; all components explain 100%.
    util::Rng rng(3);
    Matrix x(100, 3);
    for (std::size_t r = 0; r < 100; ++r) {
        const double t = rng.uniform(-10.0, 10.0);
        x(r, 0) = t;
        x(r, 1) = -t + rng.gaussian(0.0, 0.1);
        x(r, 2) = rng.gaussian(0.0, 0.1);
    }
    ml::PcaConfig config;
    config.standardize = false;
    ml::Pca pca(config);
    pca.fit(x);
    EXPECT_EQ(pca.componentsForVariance(0.9), 1u);
    EXPECT_EQ(pca.componentsForVariance(1.0), 3u);
    EXPECT_THROW(pca.componentsForVariance(0.0), util::InvalidArgument);
    EXPECT_THROW(pca.componentsForVariance(1.5), util::InvalidArgument);
}

TEST(Pca, TransformPreservesPairwiseDistancesAtFullRank)
{
    util::Rng rng(4);
    Matrix x(20, 3);
    for (std::size_t r = 0; r < 20; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            x(r, c) = rng.uniform(-2.0, 2.0);
    ml::PcaConfig config;
    config.standardize = false;
    ml::Pca pca(config);
    pca.fit(x);
    const Matrix z = pca.transform(x, 3);

    // Full-rank PCA is a rotation of the centered data: pairwise
    // distances are preserved.
    auto dist2 = [](const Matrix &m, std::size_t a, std::size_t b) {
        double acc = 0.0;
        for (std::size_t c = 0; c < m.cols(); ++c) {
            const double d = m(a, c) - m(b, c);
            acc += d * d;
        }
        return acc;
    };
    for (std::size_t a = 0; a < 5; ++a)
        for (std::size_t b = a + 1; b < 5; ++b)
            EXPECT_NEAR(dist2(x, a, b), dist2(z, a, b), 1e-8);
}

TEST(Pca, ProjectionsAreUncorrelated)
{
    util::Rng rng(5);
    Matrix x(100, 3);
    for (std::size_t r = 0; r < 100; ++r) {
        const double t = rng.uniform(-3.0, 3.0);
        x(r, 0) = t + rng.gaussian(0.0, 0.3);
        x(r, 1) = 2.0 * t + rng.gaussian(0.0, 0.3);
        x(r, 2) = rng.gaussian(0.0, 1.0);
    }
    ml::Pca pca{};
    pca.fit(x);
    const Matrix z = pca.transform(x, 3);
    // Sample covariance of distinct projected columns ~ 0.
    for (std::size_t a = 0; a < 3; ++a) {
        for (std::size_t b = a + 1; b < 3; ++b) {
            double cov = 0.0;
            for (std::size_t r = 0; r < 100; ++r)
                cov += z(r, a) * z(r, b);
            EXPECT_NEAR(cov / 99.0, 0.0, 1e-6);
        }
    }
}

TEST(Pca, StandardizationEqualizesScales)
{
    // Second feature has 100x the scale; without standardization it
    // dominates, with standardization it does not.
    util::Rng rng(6);
    Matrix x(100, 2);
    for (std::size_t r = 0; r < 100; ++r) {
        x(r, 0) = rng.uniform(-1.0, 1.0);
        x(r, 1) = rng.uniform(-100.0, 100.0);
    }
    ml::PcaConfig raw;
    raw.standardize = false;
    ml::Pca pca_raw(raw);
    pca_raw.fit(x);
    EXPECT_GT(std::fabs(firstLoadings(pca_raw, {1.0, 1.0})[1]), 0.99);

    ml::Pca pca_std{};
    pca_std.fit(x);
    EXPECT_LT(std::fabs(firstLoadings(pca_std, columnStddevs(x))[1]), 0.95);
}

TEST(Pca, Validation)
{
    ml::Pca pca{};
    EXPECT_THROW(pca.explainedVariance(), util::InvalidArgument);
    EXPECT_THROW(pca.fit(Matrix(1, 2)), util::InvalidArgument);
    pca.fit(Matrix{{1, 2}, {3, 4}, {5, 7}});
    EXPECT_THROW(pca.transform(std::vector<double>{1.0}, 1),
                 util::InvalidArgument);
    EXPECT_THROW(pca.transform(std::vector<double>{1.0, 2.0}, 3),
                 util::InvalidArgument);
    EXPECT_THROW(pca.transform(std::vector<double>{1.0, 2.0}, 0),
                 util::InvalidArgument);
}

TEST(Pca, RejectsNonFiniteInput)
{
    // A NaN (an unobserved cell of a masked database) or an infinity
    // would poison the covariance; the fit names the problem itself.
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
        Matrix x{{1, 2}, {3, 4}, {5, 7}};
        x(1, 0) = bad;
        ml::Pca pca{};
        try {
            pca.fit(x);
            ADD_FAILURE() << "fit accepted " << bad;
        } catch (const util::InvalidArgument &e) {
            EXPECT_NE(std::string(e.what()).find("Pca::fit"),
                      std::string::npos)
                << e.what();
        }
        EXPECT_FALSE(pca.fitted());
    }
}

} // namespace
