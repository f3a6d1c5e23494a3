/**
 * @file
 * Multilayer perceptron regressor replicating the behaviour of WEKA v3's
 * MultilayerPerceptron with default settings, which is the neural network
 * the paper uses for MLP^T (Sections 3.2.2 and 6).
 *
 * WEKA defaults replicated here: a single hidden layer with
 * (#attributes + #outputs) / 2 sigmoid units, a linear output unit for
 * numeric targets, stochastic backpropagation with learning rate 0.3 and
 * momentum 0.2 for 500 epochs, and normalization of both attributes and
 * the numeric target to [-1, 1]. Each epoch visits the rows in a fresh
 * random order, and initial weights are uniform in [-0.5, 0.5]. The
 * learning rate, momentum, weight range and activations are constants
 * of mlp.cpp, as is the restart protocol for a run whose loss
 * diverges; MlpConfig holds only what callers set: the epochs, the
 * seed, normalization, and the hidden layers and batch size of the
 * deeper DEEP^T network.
 */

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/matrix.h"
#include "ml/normalizer.h"

namespace dtrank::ml
{

/**
 * The settings of the Mlp that callers choose; the rest of WEKA's
 * defaults are constants of mlp.cpp (see the file comment).
 */
struct MlpConfig
{
    /**
     * Hidden layer sizes. Empty means WEKA's automatic single layer of
     * (#attributes + #outputs) / 2 units (the 'a' wildcard).
     */
    std::vector<std::size_t> hiddenLayers;
    /** Number of passes over the training data. */
    std::size_t epochs = 500;
    /** Seed for weight initialization and shuffling. */
    std::uint64_t seed = 1;
    /** Normalize attributes and target to [-1, 1] (WEKA default). */
    bool normalize = true;
    /**
     * Training batch size. 1 (the default) is WEKA's per-sample
     * stochastic backprop — the exact per-sample code path, bit-
     * unchanged. Any other value selects the GEMM-backed minibatch
     * engine: 0 trains full-batch, k > 1 trains on minibatches of k
     * rows (the last batch of an epoch may be smaller). One momentum
     * update per layer per batch is applied with the batch-mean
     * gradient, and the epoch's forward/backward passes run as blocked
     * GEMM calls through the simd kernel table. Batched training is a
     * different (deterministic) optimization trajectory than
     * per-sample SGD, but like every path in this repo it is
     * bit-identical across dispatch tiers and thread counts.
     */
    std::size_t batchSize = 1;

    bool operator==(const MlpConfig &other) const = default;
};

/**
 * Reusable training workspace: every buffer the epoch x sample loop of
 * Mlp::fit touches, laid out flat and contiguous and sized once per
 * network architecture.
 *
 * The experiment protocols train thousands of small networks per run;
 * before the workspace existed every sample of every epoch
 * heap-allocated its input row, per-layer output vectors and delta
 * vectors. A workspace is reused across fits (resize() is a no-op when
 * the architecture is unchanged), so steady-state training performs
 * zero heap allocation inside the epoch loop. Mlp::fit uses one
 * workspace per thread by default; pass an explicit workspace to
 * control reuse and lifetime.
 *
 * Not thread safe: use one workspace per thread.
 */
class MlpWorkspace
{
  public:
    MlpWorkspace() = default;

    /**
     * Sizes the buffers for a network with the given layer widths
     * (input, hidden..., output). No-op when already sized for them.
     */
    void resize(const std::vector<std::size_t> &layer_sizes);

    /** Grows the per-sample bookkeeping for `n` training rows. */
    void ensureRows(std::size_t n);

    /** Grows the loss record for `epochs` epochs. */
    void ensureEpochs(std::size_t epochs);

    /**
     * Sizes the minibatch buffers (batch activations, batch deltas,
     * gradient accumulators) for `rows` samples per batch. Requires
     * resize() to have fixed the architecture first. No-op when
     * already at least that large.
     */
    void ensureBatch(std::size_t rows);

    /** Layer widths the buffers are currently sized for. */
    const std::vector<std::size_t> &layerSizes() const { return sizes_; }

  private:
    friend class Mlp;

    std::vector<std::size_t> sizes_; ///< input, hidden..., output
    std::vector<std::size_t> wOff_;  ///< per-layer offset into weights_
    std::vector<std::size_t> uOff_;  ///< per-layer offset into unit-wide
                                     ///< buffers (bias_, acts_, ...)
    std::vector<double> weights_;    ///< all layers, transposed in x out
                                     ///< (unit index fastest, so the
                                     ///< forward/update loops vectorize
                                     ///< across units)
    std::vector<double> prevDw_;     ///< momentum state for weights_
    std::vector<double> bias_;       ///< all layers' biases
    std::vector<double> prevDb_;     ///< momentum state for bias_
    std::vector<double> acts_;       ///< per-layer outputs of one sample
    std::vector<double> deltas_;     ///< per-layer dE/d(net) of one sample
    std::vector<double> loss_;       ///< per-epoch MSE of the current run
    std::vector<std::size_t> visit_; ///< row visit order of one epoch

    // Minibatch-engine buffers (batchSize != 1). Both engines store
    // weights_ in the transposed [input][unit] layout above: each
    // layer is the panel whose rows the mlpBatchNets forward kernel
    // streams. The batched engine keeps its gradient sums gradW_ and
    // its momentum state prevDw_ unit-major, and its momentum step
    // writes each weight step back onto the transposed layout. Either
    // engine reinitializes all weights and momentum per fit.
    std::size_t batchRows_ = 0;      ///< rows the batch buffers hold
    std::vector<double> gradW_;      ///< batch weight-gradient sums
    std::vector<double> gradB_;      ///< batch bias-gradient sums
    std::vector<double> actsB_;      ///< per-layer outputs, batch-wide
                                     ///< (layer i at uOff_[i] * rows)
    std::vector<double> deltasB_;    ///< per-layer deltas, batch-wide
};

/**
 * Feed-forward neural network trained with stochastic backpropagation,
 * single numeric output.
 */
class Mlp
{
  public:
    explicit Mlp(MlpConfig config = MlpConfig{});

    /**
     * Trains the network using a per-thread workspace (allocation-free
     * in the epoch loop once the thread's workspace is warm).
     *
     * @param x One row per training instance.
     * @param y Numeric target per instance; y.size() == x.rows() >= 1.
     */
    void fit(const linalg::Matrix &x, const std::vector<double> &y);

    /**
     * Trains the network with an explicit workspace. Bit-identical to
     * the per-thread-workspace overload; useful when the caller wants
     * to control buffer reuse across many fits.
     */
    void fit(const linalg::Matrix &x, const std::vector<double> &y,
             MlpWorkspace &workspace);

    /**
     * Trains every network of `nets`: nets[l] on the rows of `x` seen
     * through the feature columns columns[l], with targets targets[l].
     * Network by network this is bit-identical to
     * nets[l].fit(x.selectColumns(columns[l]), targets[l]): the same
     * weights, predictions and lossHistory(), and the same
     * dtrank_mlp_{fits,epochs,retries}_total increments.
     *
     * When lanesSupport() accepts nets[0]'s config and every other
     * config equals it apart from the seed, the networks train
     * simd::kMlpLanes at a time as vector lanes (the mlpLaneStep
     * kernel) straight from the shared matrix: per step each lane
     * gathers its own columns of the row its own shuffle visits next,
     * and with normalization on, `x` is range-normalized once (a
     * column's range depends on that column alone, so each lane sees
     * exactly fit()'s normalized inputs). A lane whose loss diverges
     * drops out of its group (dtrank_mlp_lane_dropouts_total) and
     * retries alone on the per-network path with seed + 1 and a
     * halved learning rate, as fit() would. Anything else trains
     * network by network through fit().
     *
     * @param x Shared training matrix, one row per training instance.
     * @param columns Per network, the columns of `x` it reads as its
     *        features (the same count for every network).
     * @param targets Per network, one target per row of `x`.
     */
    static void fitLanes(std::span<Mlp> nets, const linalg::Matrix &x,
                         std::span<const std::vector<std::size_t>> columns,
                         std::span<const std::vector<double>> targets);

    /**
     * True when fitLanes() trains networks with this config as lanes:
     * per-sample training (batchSize 1) and one hidden layer (explicit
     * or WEKA's automatic one).
     */
    static bool lanesSupport(const MlpConfig &config);

    /** Predicts the target for one raw (unnormalized) feature vector. */
    double predict(const std::vector<double> &features) const;

    /**
     * Predicts for each column of a raw FEATURE-MAJOR matrix (one row
     * per feature, one column per sample — the benchmark x machine
     * layout). The batched forward pass: per tile of samples, one
     * column-major canonical-dot GEMM per layer
     * (simd::gemmDotColumns) with the samples as vector lanes. Each
     * sample's arithmetic is the scalar predict()'s (bias + canonical
     * dot per unit, the same activation and normalization
     * expressions), so the result is bit-identical to predict() on
     * every column, at every dispatch tier, whatever else is in the
     * batch.
     */
    std::vector<double> predictColumns(const linalg::Matrix &xt) const;

    /** True once fit() has completed. */
    bool trained() const { return trained_; }

    /** Mean squared error on the training data after the final epoch. */
    double trainingMse() const;

    /** Per-epoch training MSE history (size == epochs). */
    const std::vector<double> &lossHistory() const { return loss_history_; }

    const MlpConfig &config() const { return config_; }

    /** Number of input features the network was trained on. */
    std::size_t inputSize() const { return input_size_; }

    /** Actual hidden layer sizes after resolving WEKA's 'a' default. */
    const std::vector<std::size_t> &hiddenSizes() const { return hidden_; }

  private:
    /** One trained fully connected layer (inference state only). */
    struct Layer
    {
        linalg::Matrix weights;   // out x in
        std::vector<double> bias; // out
    };

    /** Resolves hidden_ for `inputs` features (WEKA's 'a' default). */
    void resolveHidden(std::size_t inputs);

    /**
     * Trains on already-normalized data, restarting with a halved
     * learning rate on divergence, from attempt `first_attempt` at base
     * rate `lr_base`, and publishes the accepted run.
     * @return the number of the accepted attempt plus one.
     */
    std::size_t trainAndPublish(const linalg::Matrix &xn,
                                const std::vector<double> &yn,
                                MlpWorkspace &ws, std::size_t first_attempt,
                                double lr_base);

    /**
     * Copies an accepted run's weights into layers_. wt[li] and
     * bias[li] point at layer li's weights (transposed [input][unit]
     * layout) and biases, whose consecutive elements lie `stride`
     * doubles apart.
     */
    void publish(std::span<const double *const> wt,
                 std::span<const double *const> bias, std::size_t stride);

    /**
     * fitLanes() on at most simd::kMlpLanes lane-capable networks
     * whose hidden_/normalizers fitLanes() already set: `xn` and `yn`
     * are normalized as fit() would normalize them.
     */
    static void fitLaneGroup(std::span<Mlp> nets, const linalg::Matrix &xn,
                             std::span<const std::vector<std::size_t>> columns,
                             std::span<const std::vector<double>> yn);

    /** Forward pass on normalized features; fills per-layer outputs. */
    std::vector<std::vector<double>>
    forward(const std::vector<double> &input) const;

    /** Forward pass returning only the scalar (normalized) output. */
    double forwardScalar(const std::vector<double> &input) const;

    /**
     * One full training run at the given base learning rate, entirely
     * inside the workspace buffers (no heap allocation in the epoch
     * loop). The accepted run's weights are copied into layers_ by
     * fit().
     * @return false when the loss diverged (caller retries).
     */
    bool trainOnce(const linalg::Matrix &xn, const std::vector<double> &yn,
                   double lr_base, std::uint64_t seed,
                   MlpWorkspace &ws) const;

    /**
     * The GEMM-backed minibatch engine (config_.batchSize != 1): the
     * per-epoch forward and backward passes over each batch run as
     * whole-batch kernel-table calls (mlpBatchNets for forward nets,
     * the per-sample mlpLayerDeltas recurrence, and mlpGradAccum plus
     * an axpy sweep for the gradient sums) with one batch-mean
     * momentum update per layer per batch. Weights live input-major
     * in the workspace so the forward kernel streams weight rows
     * contiguously; the momentum step transposes the unit-major
     * gradient back onto that layout. Same divergence/restart
     * protocol as trainOnce.
     */
    bool trainOnceBatched(const linalg::Matrix &xn,
                          const std::vector<double> &yn, double lr_base,
                          std::uint64_t seed, MlpWorkspace &ws) const;

    MlpConfig config_;
    std::vector<Layer> layers_;
    std::vector<std::size_t> hidden_;
    RangeNormalizer featureNorm_;
    RangeNormalizer targetNorm_;
    std::vector<double> loss_history_;
    std::size_t input_size_ = 0;
    bool trained_ = false;
};

} // namespace dtrank::ml

