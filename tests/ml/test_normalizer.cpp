/**
 * @file
 * Unit tests for the feature normalizers.
 */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "ml/normalizer.h"
#include "util/error.h"

namespace
{

using namespace dtrank;
using linalg::Matrix;

TEST(RangeNormalizer, MapsToMinusOneOne)
{
    ml::RangeNormalizer norm;
    norm.fit(Matrix{{0, 10}, {4, 20}});
    const auto lo = norm.transform(std::vector<double>{0, 10});
    const auto hi = norm.transform(std::vector<double>{4, 20});
    EXPECT_DOUBLE_EQ(lo[0], -1.0);
    EXPECT_DOUBLE_EQ(lo[1], -1.0);
    EXPECT_DOUBLE_EQ(hi[0], 1.0);
    EXPECT_DOUBLE_EQ(hi[1], 1.0);
    const auto mid = norm.transform(std::vector<double>{2, 15});
    EXPECT_DOUBLE_EQ(mid[0], 0.0);
    EXPECT_DOUBLE_EQ(mid[1], 0.0);
}

TEST(RangeNormalizer, ExtrapolatesLinearlyOutsideRange)
{
    ml::RangeNormalizer norm;
    norm.fit(Matrix{{0}, {10}});
    EXPECT_DOUBLE_EQ(norm.transform(std::vector<double>{20})[0], 3.0);
    EXPECT_DOUBLE_EQ(norm.transform(std::vector<double>{-10})[0], -3.0);
}

TEST(RangeNormalizer, ConstantFeatureMapsToZero)
{
    ml::RangeNormalizer norm;
    norm.fit(Matrix{{5}, {5}});
    EXPECT_DOUBLE_EQ(norm.transform(std::vector<double>{5})[0], 0.0);
    EXPECT_DOUBLE_EQ(norm.transform(std::vector<double>{99})[0], 0.0);
}

TEST(RangeNormalizer, MatrixTransform)
{
    ml::RangeNormalizer norm;
    const Matrix x{{0, 0}, {2, 4}};
    norm.fit(x);
    const Matrix z = norm.transform(x);
    EXPECT_DOUBLE_EQ(z(0, 0), -1.0);
    EXPECT_DOUBLE_EQ(z(1, 1), 1.0);
}

TEST(RangeNormalizer, FeatureMajorPathsMatchTheMatrixTransform)
{
    // setRanges() from the columns' own min/max is fit(), and
    // transformFeature() over a column (into a buffer or in place) is
    // that column of transform(), bit for bit; the constant middle
    // feature maps to 0.
    const Matrix x{{0.3, 7.0, -2.0}, {1.9, 7.0, 5.5}, {-0.7, 7.0, 1.25}};
    ml::RangeNormalizer fitted;
    fitted.fit(x);
    ml::RangeNormalizer swept;
    swept.setRanges({-0.7, 7.0, -2.0}, {1.9, 7.0, 5.5});
    const Matrix z = fitted.transform(x);
    for (std::size_t c = 0; c < x.cols(); ++c) {
        std::vector<double> col = x.column(c);
        std::vector<double> out(col.size());
        swept.transformFeature(c, col.data(), out.data(), col.size());
        swept.transformFeature(c, col.data(), col.data(), col.size());
        EXPECT_EQ(out, z.column(c)) << "feature " << c;
        EXPECT_EQ(col, z.column(c)) << "feature " << c;
    }
    EXPECT_THROW(swept.setRanges({0.0}, {1.0, 2.0}), util::InvalidArgument);
    EXPECT_THROW(swept.setRanges({}, {}), util::InvalidArgument);
    double v = 0.0;
    EXPECT_THROW(swept.transformFeature(3, &v, &v, 1),
                 util::InvalidArgument);
}

TEST(RangeNormalizer, ScalarSeriesRoundTrip)
{
    ml::RangeNormalizer norm;
    norm.fitSeries({2.0, 6.0, 10.0});
    EXPECT_DOUBLE_EQ(norm.transformScalar(2.0), -1.0);
    EXPECT_DOUBLE_EQ(norm.transformScalar(10.0), 1.0);
    EXPECT_DOUBLE_EQ(norm.transformScalar(6.0), 0.0);
    for (double v : {2.0, 3.7, 6.0, 12.5})
        EXPECT_NEAR(norm.inverseTransformScalar(norm.transformScalar(v)),
                    v, 1e-12);
}

TEST(RangeNormalizer, ConstantSeriesInverse)
{
    ml::RangeNormalizer norm;
    norm.fitSeries({5.0, 5.0});
    EXPECT_DOUBLE_EQ(norm.inverseTransformScalar(0.7), 5.0);
}

TEST(RangeNormalizer, Validation)
{
    ml::RangeNormalizer norm;
    EXPECT_FALSE(norm.fitted());
    EXPECT_THROW(norm.transform(std::vector<double>{1.0}),
                 util::InvalidArgument);
    EXPECT_THROW(norm.fit(Matrix()), util::InvalidArgument);
    norm.fit(Matrix{{1, 2}});
    EXPECT_TRUE(norm.fitted());
    EXPECT_EQ(norm.featureCount(), 2u);
    EXPECT_THROW(norm.transform(std::vector<double>{1.0}),
                 util::InvalidArgument);
    EXPECT_THROW(norm.transformScalar(1.0), util::InvalidArgument);
}

TEST(StandardNormalizer, ZeroMeanUnitVariance)
{
    ml::StandardNormalizer norm;
    const Matrix x{{1}, {2}, {3}, {4}};
    norm.fit(x);
    const Matrix z = norm.transform(x);
    double mean = 0.0;
    for (std::size_t r = 0; r < 4; ++r)
        mean += z(r, 0);
    EXPECT_NEAR(mean / 4.0, 0.0, 1e-12);
    double var = 0.0;
    for (std::size_t r = 0; r < 4; ++r)
        var += z(r, 0) * z(r, 0);
    EXPECT_NEAR(var / 3.0, 1.0, 1e-12);
}

TEST(StandardNormalizer, ConstantFeatureMapsToZero)
{
    ml::StandardNormalizer norm;
    norm.fit(Matrix{{7, 1}, {7, 2}});
    const auto z = norm.transform(std::vector<double>{7, 1.5});
    EXPECT_DOUBLE_EQ(z[0], 0.0);
}

TEST(StandardNormalizer, ExposesMoments)
{
    ml::StandardNormalizer norm;
    norm.fit(Matrix{{1}, {3}});
    EXPECT_DOUBLE_EQ(norm.means()[0], 2.0);
    EXPECT_NEAR(norm.stddevs()[0], std::sqrt(2.0), 1e-12);
}

TEST(StandardNormalizer, Validation)
{
    ml::StandardNormalizer norm;
    EXPECT_THROW(norm.transform(std::vector<double>{1.0}),
                 util::InvalidArgument);
    norm.fit(Matrix{{1, 2}, {3, 4}});
    EXPECT_THROW(norm.transform(std::vector<double>{1.0}),
                 util::InvalidArgument);
}

} // namespace
