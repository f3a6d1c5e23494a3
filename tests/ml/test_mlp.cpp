/**
 * @file
 * Unit and behaviour tests for the WEKA-style multilayer perceptron.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ml/mlp.h"
#include "simd/simd.h"
#include "util/error.h"
#include "util/rng.h"

namespace
{

using namespace dtrank;
using linalg::Matrix;

ml::MlpConfig
fastConfig()
{
    ml::MlpConfig config;
    config.epochs = 200;
    return config;
}

TEST(Mlp, LearnsLinearFunction)
{
    // y = 2*x1 - x2 + 1 over a grid.
    util::Rng rng(1);
    Matrix x(40, 2);
    std::vector<double> y(40);
    for (std::size_t i = 0; i < 40; ++i) {
        x(i, 0) = rng.uniform(0.0, 10.0);
        x(i, 1) = rng.uniform(0.0, 10.0);
        y[i] = 2.0 * x(i, 0) - x(i, 1) + 1.0;
    }
    ml::Mlp net(fastConfig());
    net.fit(x, y);
    EXPECT_TRUE(net.trained());
    // In-range predictions should be close.
    double max_err = 0.0;
    for (std::size_t i = 0; i < 40; ++i)
        max_err = std::max(max_err,
                           std::fabs(net.predict(x.row(i)) - y[i]));
    const double y_range = 31.0; // roughly max-min of targets
    EXPECT_LT(max_err / y_range, 0.08);
}

TEST(Mlp, LearnsNonlinearRelation)
{
    // y = x^2 on [0, 4]: a linear model would have large error.
    Matrix x(17, 1);
    std::vector<double> y(17);
    for (std::size_t i = 0; i < 17; ++i) {
        x(i, 0) = 0.25 * static_cast<double>(i);
        y[i] = x(i, 0) * x(i, 0);
    }
    ml::MlpConfig config = fastConfig();
    config.epochs = 2000;
    ml::Mlp net(config);
    net.fit(x, y);
    EXPECT_NEAR(net.predict(std::vector<double>{2.0}), 4.0, 1.0);
    EXPECT_NEAR(net.predict(std::vector<double>{3.5}), 12.25, 2.0);
    // The fit must capture curvature: midpoint below chord.
    const double mid = net.predict(std::vector<double>{2.0});
    const double chord = 0.5 * (net.predict(std::vector<double>{0.5}) + net.predict(std::vector<double>{3.5}));
    EXPECT_LT(mid, chord);
}

TEST(Mlp, LossDecreasesDuringTraining)
{
    util::Rng rng(2);
    Matrix x(30, 3);
    std::vector<double> y(30);
    for (std::size_t i = 0; i < 30; ++i) {
        for (std::size_t c = 0; c < 3; ++c)
            x(i, c) = rng.uniform(-1.0, 1.0);
        y[i] = x(i, 0) + 0.5 * x(i, 1);
    }
    ml::Mlp net(fastConfig());
    net.fit(x, y);
    const auto &loss = net.lossHistory();
    ASSERT_EQ(loss.size(), fastConfig().epochs);
    EXPECT_LT(loss.back(), loss.front());
}

TEST(Mlp, DeterministicGivenSeed)
{
    Matrix x{{1}, {2}, {3}, {4}};
    const std::vector<double> y = {2, 4, 6, 8};
    ml::Mlp a(fastConfig());
    ml::Mlp b(fastConfig());
    a.fit(x, y);
    b.fit(x, y);
    EXPECT_DOUBLE_EQ(a.predict(std::vector<double>{2.5}), b.predict(std::vector<double>{2.5}));
}

TEST(Mlp, DifferentSeedsDiffer)
{
    Matrix x{{1}, {2}, {3}, {4}};
    const std::vector<double> y = {2, 4, 6, 8};
    ml::MlpConfig c1 = fastConfig();
    ml::MlpConfig c2 = fastConfig();
    c2.seed = 999;
    ml::Mlp a(c1);
    ml::Mlp b(c2);
    a.fit(x, y);
    b.fit(x, y);
    EXPECT_NE(a.predict(std::vector<double>{2.5}), b.predict(std::vector<double>{2.5}));
}

TEST(Mlp, WekaAutomaticHiddenLayer)
{
    // WEKA's 'a' rule: (#attributes + #outputs) / 2.
    Matrix x(5, 28);
    for (std::size_t r = 0; r < 5; ++r)
        for (std::size_t c = 0; c < 28; ++c)
            x(r, c) = static_cast<double>(r + c);
    ml::MlpConfig config = fastConfig();
    config.epochs = 5;
    ml::Mlp net(config);
    net.fit(x, {1, 2, 3, 4, 5});
    ASSERT_EQ(net.hiddenSizes().size(), 1u);
    EXPECT_EQ(net.hiddenSizes()[0], (28u + 1u) / 2u);
    EXPECT_EQ(net.inputSize(), 28u);
}

TEST(Mlp, ExplicitHiddenLayers)
{
    ml::MlpConfig config = fastConfig();
    config.hiddenLayers = {4, 3};
    config.epochs = 5;
    ml::Mlp net(config);
    Matrix x{{1}, {2}, {3}};
    net.fit(x, {1, 2, 3});
    EXPECT_EQ(net.hiddenSizes(), (std::vector<std::size_t>{4, 3}));
}

TEST(Mlp, SingleTrainingInstanceIsFittedExactly)
{
    ml::MlpConfig config = fastConfig();
    config.epochs = 50;
    ml::Mlp net(config);
    Matrix x{{3.0, 4.0}};
    net.fit(x, {7.0});
    // With target normalization a single point maps to the centre of
    // the output range; the inverse transform must recover it.
    EXPECT_NEAR(net.predict(std::vector<double>{3.0, 4.0}), 7.0, 1e-6);
}

TEST(Mlp, TinyTrainingSetDoesNotDiverge)
{
    // Three near-collinear instances with large feature scales — the
    // regime that used to blow up stochastic backprop. The restart
    // logic must keep the loss finite.
    Matrix x{{100, 200, 300}, {110, 220, 330}, {90, 180, 270}};
    const std::vector<double> y = {50, 55, 45};
    ml::MlpConfig config;
    config.epochs = 500;
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        config.seed = seed;
        ml::Mlp net(config);
        net.fit(x, y);
        EXPECT_TRUE(std::isfinite(net.trainingMse())) << seed;
        EXPECT_TRUE(std::isfinite(net.predict(std::vector<double>{105, 210, 315})))
            << seed;
    }
}

TEST(Mlp, Validation)
{
    ml::Mlp net(fastConfig());
    EXPECT_THROW(net.predict(std::vector<double>{1.0}), util::InvalidArgument);
    EXPECT_THROW(net.trainingMse(), util::InvalidArgument);
    EXPECT_THROW(net.fit(Matrix(), {}), util::InvalidArgument);
    EXPECT_THROW(net.fit(Matrix(2, 2), {1.0}), util::InvalidArgument);

    net.fit(Matrix{{1}, {2}}, {1, 2});
    EXPECT_THROW(net.predict(std::vector<double>{1.0, 2.0}), util::InvalidArgument);
}

TEST(Mlp, ConfigValidation)
{
    // The epoch count is the one validated setting: it arrives from
    // the command line (--epochs).
    ml::MlpConfig bad;
    bad.epochs = 0;
    EXPECT_THROW(ml::Mlp{bad}, util::InvalidArgument);
}

TEST(Mlp, BatchPredictMatchesScalar)
{
    Matrix x{{1}, {2}, {3}, {4}};
    ml::MlpConfig config = fastConfig();
    config.epochs = 50;
    ml::Mlp net(config);
    net.fit(x, {1, 2, 3, 4});
    const auto batch = net.predictColumns(x.transposed());
    for (std::size_t r = 0; r < 4; ++r)
        EXPECT_DOUBLE_EQ(batch[r], net.predict(x.row(r)));
}

TEST(Mlp, BatchPredictIsBitIdenticalOnWideNetworks)
{
    // Multi-feature inputs and several hidden layers exercise the
    // batched layer sweep with several accumulation terms per unit; the
    // result must still match the scalar path exactly, not just
    // approximately. The second shape is DEEP^T's (three 16-unit
    // layers, minibatch-trained) over 28 benchmark features, asked
    // about 300 samples: 28 terms straddle the 16-term canonical
    // block, and 300 is neither a multiple of the forward pass's
    // sample tile nor of a lane width.
    struct Shape
    {
        std::size_t features;
        std::vector<std::size_t> hidden;
        std::size_t batchSize;
        std::size_t queries;
    };
    const Shape shapes[] = {{5, {6, 4}, 1, 30}, {28, {16, 16, 16}, 8, 300}};
    for (const Shape &shape : shapes) {
        SCOPED_TRACE("features=" + std::to_string(shape.features));
        util::Rng rng(3);
        Matrix x(30, shape.features);
        std::vector<double> y(30);
        for (std::size_t i = 0; i < 30; ++i) {
            for (std::size_t c = 0; c < shape.features; ++c)
                x(i, c) = rng.uniform(-3.0, 3.0);
            y[i] = x(i, 0) - 2.0 * x(i, 3);
        }
        ml::MlpConfig config = fastConfig();
        config.epochs = 40;
        config.hiddenLayers = shape.hidden;
        config.batchSize = shape.batchSize;
        ml::Mlp net(config);
        net.fit(x, y);

        Matrix q(shape.queries, shape.features);
        for (std::size_t i = 0; i < shape.queries; ++i)
            for (std::size_t c = 0; c < shape.features; ++c)
                q(i, c) = rng.uniform(-4.0, 4.0);
        const auto batch = net.predictColumns(q.transposed());
        const auto columns = net.predictColumns(q.transposed());
        ASSERT_EQ(batch.size(), shape.queries);
        for (std::size_t r = 0; r < shape.queries; ++r) {
            const double scalar = net.predict(q.row(r));
            EXPECT_EQ(batch[r], scalar) << "row " << r;
            EXPECT_EQ(columns[r], scalar) << "row " << r;
        }
    }
}

TEST(Mlp, MinibatchConvergesOnLinearFunction)
{
    // The GEMM-backed minibatch engine is a different optimization
    // trajectory than per-sample SGD, but it must still learn. Cover
    // full-batch (0) and a batch size that leaves a partial final
    // batch (40 % 16 = 8 rows).
    util::Rng rng(1);
    Matrix x(40, 2);
    std::vector<double> y(40);
    for (std::size_t i = 0; i < 40; ++i) {
        x(i, 0) = rng.uniform(0.0, 10.0);
        x(i, 1) = rng.uniform(0.0, 10.0);
        y[i] = 2.0 * x(i, 0) - x(i, 1) + 1.0;
    }
    for (std::size_t batch : {std::size_t{0}, std::size_t{16}}) {
        ml::MlpConfig config = fastConfig();
        config.epochs = 2000;
        config.batchSize = batch;
        ml::Mlp net(config);
        net.fit(x, y);
        EXPECT_TRUE(net.trained());
        double max_err = 0.0;
        for (std::size_t i = 0; i < 40; ++i)
            max_err = std::max(
                max_err, std::fabs(net.predict(x.row(i)) - y[i]));
        const double y_range = 31.0;
        EXPECT_LT(max_err / y_range, 0.08) << "batch=" << batch;
    }
}

TEST(Mlp, MinibatchLossDecreasesAndIsDeterministic)
{
    util::Rng rng(2);
    Matrix x(30, 3);
    std::vector<double> y(30);
    for (std::size_t i = 0; i < 30; ++i) {
        for (std::size_t c = 0; c < 3; ++c)
            x(i, c) = rng.uniform(-1.0, 1.0);
        y[i] = x(i, 0) + 0.5 * x(i, 1);
    }
    ml::MlpConfig config = fastConfig();
    config.batchSize = 8;
    ml::Mlp a(config);
    ml::Mlp b(config);
    a.fit(x, y);
    b.fit(x, y);
    const auto &loss = a.lossHistory();
    ASSERT_EQ(loss.size(), config.epochs);
    EXPECT_LT(loss.back(), loss.front());
    // Same seed, same batch size: bit-identical runs.
    EXPECT_EQ(a.lossHistory(), b.lossHistory());
    const auto pa = a.predictColumns(x.transposed());
    const auto pb = b.predictColumns(x.transposed());
    EXPECT_EQ(pa, pb);
}

TEST(Mlp, MinibatchMatchesAcrossBatchedWorkspaceReuse)
{
    // One workspace reused for a per-sample fit, then a batched fit,
    // then per-sample again: each engine relays out the weights it
    // needs (per-sample transposed, batched unit-major), so reuse must
    // not contaminate results.
    Matrix x{{1}, {2}, {3}, {4}};
    const std::vector<double> y = {2, 4, 6, 8};

    ml::MlpConfig per_sample = fastConfig();
    ml::MlpConfig batched = fastConfig();
    batched.batchSize = 0;

    ml::Mlp fresh_ps(per_sample);
    fresh_ps.fit(x, y);
    ml::Mlp fresh_b(batched);
    fresh_b.fit(x, y);

    ml::MlpWorkspace ws;
    ml::Mlp a(per_sample);
    a.fit(x, y, ws);
    ml::Mlp b(batched);
    b.fit(x, y, ws);
    ml::Mlp c(per_sample);
    c.fit(x, y, ws);

    const std::vector<double> probe{2.5};
    EXPECT_EQ(a.predict(probe), fresh_ps.predict(probe));
    EXPECT_EQ(b.predict(probe), fresh_b.predict(probe));
    EXPECT_EQ(c.predict(probe), fresh_ps.predict(probe));
}

TEST(Mlp, MinibatchBitIdenticalAcrossSimdTiers)
{
    // The minibatch trajectory differs from per-sample SGD, but like
    // every path in the repo it must be bit-identical across dispatch
    // tiers: the GEMM forward is canonical dots, the delta recurrence
    // and gradient sweeps are elementwise.
    util::Rng rng(7);
    Matrix x(30, 5);
    std::vector<double> y(30);
    for (std::size_t i = 0; i < 30; ++i) {
        for (std::size_t c = 0; c < 5; ++c)
            x(i, c) = rng.uniform(-3.0, 3.0);
        y[i] = x(i, 0) - 2.0 * x(i, 3);
    }
    ml::MlpConfig config = fastConfig();
    config.epochs = 60;
    config.hiddenLayers = {17, 6}; // >16 inputs: full canonical blocks
    config.batchSize = 8;

    const simd::Tier saved = simd::activeTier();
    simd::setTier(simd::Tier::Scalar);
    ml::Mlp ref(config);
    ref.fit(x, y);
    const auto ref_loss = ref.lossHistory();
    const auto ref_pred = ref.predictColumns(x.transposed());

    for (simd::Tier tier : {simd::Tier::Avx2, simd::Tier::Avx512}) {
        if (simd::requestTier(tier) != tier)
            continue; // tier unavailable on this build/CPU
        ml::Mlp net(config);
        net.fit(x, y);
        EXPECT_EQ(net.lossHistory(), ref_loss)
            << simd::tierName(tier);
        EXPECT_EQ(net.predictColumns(x.transposed()), ref_pred)
            << simd::tierName(tier);
    }
    simd::setTier(saved);
}

TEST(Mlp, MinibatchTinyTrainingSetDoesNotDiverge)
{
    // The batched engine shares the divergence/restart protocol; the
    // 3-machine transposition regime must stay finite under it too.
    Matrix x{{100, 200, 300}, {110, 220, 330}, {90, 180, 270}};
    const std::vector<double> y = {50, 55, 45};
    ml::MlpConfig config;
    config.epochs = 500;
    config.batchSize = 0;
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        config.seed = seed;
        ml::Mlp net(config);
        net.fit(x, y);
        EXPECT_TRUE(std::isfinite(net.trainingMse())) << seed;
    }
}

TEST(Mlp, NoNormalizationModeWorksOnCenteredData)
{
    ml::MlpConfig config = fastConfig();
    config.normalize = false;
    config.epochs = 1000;
    ml::Mlp net(config);
    Matrix x{{-1.0}, {-0.5}, {0.0}, {0.5}, {1.0}};
    const std::vector<double> y = {-0.5, -0.25, 0.0, 0.25, 0.5};
    net.fit(x, y);
    EXPECT_NEAR(net.predict(std::vector<double>{0.25}), 0.125, 0.1);
}

} // namespace
