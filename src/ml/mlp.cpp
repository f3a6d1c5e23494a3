#include "ml/mlp.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <new>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "simd/simd.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/rng.h"

namespace dtrank::ml
{

namespace
{

// WEKA v3's MultilayerPerceptron defaults, which the paper never varies.
constexpr double kLearningRate = 0.3;
constexpr double kMomentum = 0.2;
/** Initial weights and biases are drawn uniformly from [-0.5, 0.5]. */
constexpr double kInitWeightRange = 0.5;

/**
 * Stochastic backprop with a fixed step can diverge on tiny training
 * sets (the transposition setting trains on as few as 3 machines).
 * When the epoch loss turns non-finite or grows beyond
 * kDivergenceFactor x the first epoch's loss, training restarts with
 * the learning rate halved, up to kMaxRestarts times.
 */
constexpr std::size_t kMaxRestarts = 6;
constexpr double kDivergenceFactor = 100.0;

/** MLP training counters, registered once on first fit (cold path). */
struct MlpMetrics
{
    obs::Counter &fits;
    obs::Counter &epochs;
    obs::Counter &retries;
    obs::Counter &laneDropouts;
};

const MlpMetrics &
mlpMetrics()
{
    static const MlpMetrics metrics{
        obs::MetricsRegistry::global().counter(
            "dtrank_mlp_fits_total", "Completed Mlp::fit calls"),
        obs::MetricsRegistry::global().counter(
            "dtrank_mlp_epochs_total",
            "Backpropagation epochs executed, diverged attempts "
            "included"),
        obs::MetricsRegistry::global().counter(
            "dtrank_mlp_retries_total",
            "Training attempts that diverged and restarted with a "
            "halved learning rate"),
        obs::MetricsRegistry::global().counter(
            "dtrank_mlp_lane_dropouts_total",
            "Lane-trained networks that diverged, left their lane "
            "group and restarted on the per-network path")};
    return metrics;
}

/** The per-thread workspace of fits that bring none of their own. */
MlpWorkspace &
threadWorkspace()
{
    thread_local MlpWorkspace workspace;
    return workspace;
}

/**
 * The buffers of one lane group: every per-network array of the
 * per-sample engine with a trailing lane index (element e of lane l
 * at [e * kMlpLanes + l], the simd::MlpLaneStep layout). One per
 * thread, like MlpWorkspace; resize() zero-fills, so lanes a group
 * does not use hold zeros and stay finite.
 *
 * All thirteen arrays live in one 64-byte-aligned arena, packed back
 * to back: each holds whole elements of kMlpLanes doubles, one 64-byte
 * line, so every array starts on a line and an AVX-512 lane vector
 * never straddles two. The network's arrays (w1 ... y) come first, so
 * clearLane() sweeps the one prefix before act.
 */
class LaneWorkspace
{
  public:
    static constexpr std::size_t kAlign = 64;
    static_assert(simd::kMlpLanes * sizeof(double) % kAlign == 0,
                  "a lane element must fill whole 64-byte lines");

    double *w1{}, *pw1{}, *b1{}, *pb1{}, *w2{}, *pw2{}, *b2{}, *pb2{};
    double *x{}, *y{}, *act{}, *delta{}, *sse{};
    std::vector<std::vector<std::size_t>> visit; ///< per lane

    void
    resize(std::size_t in, std::size_t hidden, std::size_t rows)
    {
        constexpr std::size_t kS = simd::kMlpLanes;
        // Each array and its length in elements of kS doubles, in
        // arena order.
        const std::pair<double **, std::size_t> layout[] = {
            {&w1, in * hidden}, {&pw1, in * hidden}, {&b1, hidden},
            {&pb1, hidden},     {&w2, hidden},       {&pw2, hidden},
            {&b2, 1},           {&pb2, 1},           {&x, in},
            {&y, 1},            {&act, hidden},      {&delta, hidden},
            {&sse, 1}};
        std::size_t total = 0;
        for (const auto &[array, elements] : layout)
            total += elements * kS;
        if (total > capacity_) {
            // total is whole 64-byte lines, as aligned_alloc requires.
            arena_.reset(static_cast<double *>(
                std::aligned_alloc(kAlign, total * sizeof(double))));
            if (!arena_)
                throw std::bad_alloc();
            capacity_ = total;
        }
        std::fill_n(arena_.get(), total, 0.0);
        double *next = arena_.get();
        for (const auto &[array, elements] : layout) {
            *array = next;
            next += elements * kS;
        }

        visit.resize(kS);
        for (std::vector<std::size_t> &order : visit) {
            // Exact size: the whole vector is shuffled each epoch.
            order.resize(rows);
            for (std::size_t i = 0; i < rows; ++i)
                order[i] = i;
        }
    }

    /** Zeroes lane l's network, so a dropped lane computes zeros. */
    void
    clearLane(std::size_t l)
    {
        for (double *e = arena_.get() + l; e < act; e += simd::kMlpLanes)
            *e = 0.0;
    }

  private:
    struct Free
    {
        void operator()(double *p) const { std::free(p); }
    };

    std::unique_ptr<double[], Free> arena_;
    std::size_t capacity_ = 0; ///< doubles the arena holds
};

LaneWorkspace &
threadLaneWorkspace()
{
    thread_local LaneWorkspace workspace;
    return workspace;
}

// The hot per-sample linear algebra (layer nets, delta recurrence,
// momentum updates) and the sigmoid live in the runtime-dispatched
// kernel layer (simd/simd.h). Hidden units are sigmoid and the output
// unit is linear, so a layer's activation is kt.sigmoid or nothing.

/**
 * d[j] *= sigmoid'(net_j), written through the unit's output y[j] =
 * sigmoid(net_j) as y * (1 - y).
 */
inline void
scaleBySigmoidDerivative(std::size_t width, const double *__restrict y,
                         double *__restrict d)
{
    for (std::size_t j = 0; j < width; ++j)
        d[j] *= y[j] * (1.0 - y[j]);
}

/**
 * The minibatch momentum step: dw = step * grad + momentum * prev,
 * applied elementwise over a whole layer's weights (or biases) once
 * per batch — the per-sample engine pays this read-modify-write
 * traffic once per SAMPLE, which is most of what the batched engine
 * saves. Tier-independent plain code, so bit-identical everywhere.
 */
inline void
momentumUpdate(double *__restrict w, double *__restrict prev,
               const double *__restrict grad, double step,
               double momentum, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const double dw = step * grad[i] + momentum * prev[i];
        w[i] += dw;
        prev[i] = dw;
    }
}

/**
 * The same momentum step with the gradient (and its momentum state)
 * in unit-major [unit][input] order — the layout the outer-product
 * gradient sweep fills — applied to the transposed [input][unit]
 * weight storage. One strided pass per layer per batch; still plain
 * elementwise arithmetic, so bit-identical in every tier.
 */
inline void
momentumUpdateTransposed(double *__restrict w, double *__restrict prev,
                         const double *__restrict grad, double step,
                         double momentum, std::size_t in,
                         std::size_t out)
{
    for (std::size_t r = 0; r < out; ++r)
        for (std::size_t c = 0; c < in; ++c) {
            const std::size_t g = r * in + c;
            const double dw = step * grad[g] + momentum * prev[g];
            w[c * out + r] += dw;
            prev[g] = dw;
        }
}

} // namespace

void
MlpWorkspace::resize(const std::vector<std::size_t> &layer_sizes)
{
    if (sizes_ == layer_sizes)
        return;
    util::require(layer_sizes.size() >= 2,
                  "MlpWorkspace::resize: needs input and output layers");
    sizes_ = layer_sizes;
    const std::size_t n_layers = sizes_.size() - 1;
    wOff_.assign(n_layers + 1, 0);
    uOff_.assign(sizes_.size() + 1, 0);
    for (std::size_t li = 0; li < n_layers; ++li)
        wOff_[li + 1] = wOff_[li] + sizes_[li + 1] * sizes_[li];
    for (std::size_t i = 0; i < sizes_.size(); ++i)
        uOff_[i + 1] = uOff_[i] + sizes_[i];

    weights_.resize(wOff_[n_layers]);
    prevDw_.resize(wOff_[n_layers]);
    // Unit-wide buffers share one layout (offset uOff_[i] for the units
    // of sizes_ entry i). bias_/prevDb_/deltas_ leave the input-width
    // prefix unused; the uniform indexing is worth the few doubles.
    const std::size_t units = uOff_.back();
    bias_.resize(units);
    prevDb_.resize(units);
    acts_.resize(units);
    deltas_.resize(units);
}

void
MlpWorkspace::ensureRows(std::size_t n)
{
    // Exact size, not capacity: the whole vector is shuffled each epoch,
    // so a longer vector would change the RNG draw sequence.
    visit_.resize(n);
}

void
MlpWorkspace::ensureEpochs(std::size_t epochs)
{
    if (loss_.size() < epochs)
        loss_.resize(epochs);
}

void
MlpWorkspace::ensureBatch(std::size_t rows)
{
    util::require(sizes_.size() >= 2,
                  "MlpWorkspace::ensureBatch: call resize() first");
    if (rows > batchRows_)
        batchRows_ = rows;
    // batchRows_ is the row stride of every per-layer block below, so
    // the blocks only grow; a smaller batch reuses the larger layout.
    const std::size_t total = uOff_.back() * batchRows_;
    if (actsB_.size() < total)
        actsB_.resize(total);
    if (deltasB_.size() < total)
        deltasB_.resize(total);
    if (gradW_.size() < weights_.size())
        gradW_.resize(weights_.size());
    if (gradB_.size() < bias_.size())
        gradB_.resize(bias_.size());
}

Mlp::Mlp(MlpConfig config) : config_(std::move(config))
{
    util::require(config_.epochs >= 1, "Mlp: epochs must be >= 1");
}

void
Mlp::fit(const linalg::Matrix &x, const std::vector<double> &y)
{
    fit(x, y, threadWorkspace());
}

void
Mlp::resolveHidden(std::size_t inputs)
{
    // WEKA's automatic hidden layer: (#attributes + #outputs) / 2.
    hidden_ = config_.hiddenLayers;
    if (hidden_.empty())
        hidden_ = {std::max<std::size_t>(1, (inputs + 1) / 2)};
    for (std::size_t h : hidden_)
        util::require(h >= 1, "Mlp::fit: hidden layer size must be >= 1");
}

void
Mlp::fit(const linalg::Matrix &x, const std::vector<double> &y,
         MlpWorkspace &ws)
{
    util::require(x.rows() == y.size(), "Mlp::fit: row count mismatch");
    util::require(x.rows() >= 1, "Mlp::fit: needs at least one instance");
    util::require(x.cols() >= 1, "Mlp::fit: needs at least one feature");

    obs::TraceSpan span("mlp_fit", "ml");
    span.arg("rows", static_cast<std::uint64_t>(x.rows()));
    span.arg("epochs", static_cast<std::uint64_t>(config_.epochs));

    input_size_ = x.cols();
    resolveHidden(input_size_);

    // Normalization of attributes and the numeric target.
    linalg::Matrix xn;
    std::vector<double> yn = y;
    if (config_.normalize) {
        featureNorm_.fit(x);
        xn = featureNorm_.transform(x);
        targetNorm_.fitSeries(y);
        for (double &v : yn)
            v = targetNorm_.transformScalar(v);
    } else {
        xn = x;
    }

    const std::size_t attempts =
        trainAndPublish(xn, yn, ws, 0, kLearningRate);
    span.arg("attempts", static_cast<std::uint64_t>(attempts));
}

std::size_t
Mlp::trainAndPublish(const linalg::Matrix &xn, const std::vector<double> &yn,
                     MlpWorkspace &ws, std::size_t first_attempt,
                     double lr_base)
{
    // Size the workspace once per architecture; every buffer the
    // epoch x sample loop touches lives in it, so repeat fits with a
    // warm workspace allocate nothing inside trainOnce.
    std::vector<std::size_t> sizes;
    sizes.reserve(hidden_.size() + 2);
    sizes.push_back(input_size_);
    for (std::size_t h : hidden_)
        sizes.push_back(h);
    sizes.push_back(1);
    ws.resize(sizes);
    ws.ensureRows(xn.rows());
    ws.ensureEpochs(config_.epochs);
    const bool batched = config_.batchSize != 1;
    if (batched)
        ws.ensureBatch(config_.batchSize == 0
                           ? xn.rows()
                           : std::min(config_.batchSize, xn.rows()));

    // Train, restarting with a halved learning rate if stochastic
    // backprop diverges (possible on very small training sets).
    std::size_t attempt = first_attempt;
    for (;; ++attempt) {
        if (trainOnce(xn, yn, lr_base, config_.seed + attempt, ws))
            break;
        util::require(attempt < kMaxRestarts,
                      "Mlp::fit: training diverged even after reducing "
                      "the learning rate");
        util::debug("Mlp::fit: attempt " + std::to_string(attempt + 1) +
                    " diverged; retrying with learning rate " +
                    std::to_string(lr_base * 0.5));
        mlpMetrics().retries.inc();
        lr_base *= 0.5;
    }
    mlpMetrics().fits.inc();

    // Publish the accepted run: copy weights out of the workspace and
    // record only this run's loss history (diverged attempts are gone).
    const std::size_t n_layers = sizes.size() - 1;
    std::vector<const double *> wt(n_layers);
    std::vector<const double *> bias(n_layers);
    for (std::size_t li = 0; li < n_layers; ++li) {
        wt[li] = ws.weights_.data() + ws.wOff_[li];
        bias[li] = ws.bias_.data() + ws.uOff_[li + 1];
    }
    publish(wt, bias, 1);
    loss_history_.assign(ws.loss_.begin(),
                         ws.loss_.begin() +
                             static_cast<std::ptrdiff_t>(config_.epochs));
    return attempt + 1;
}

void
Mlp::publish(std::span<const double *const> wt,
             std::span<const double *const> bias, std::size_t stride)
{
    const std::size_t n_layers = hidden_.size() + 1;
    layers_.clear();
    layers_.reserve(n_layers);
    std::size_t in = input_size_;
    for (std::size_t li = 0; li < n_layers; ++li) {
        const std::size_t out = li < hidden_.size() ? hidden_[li] : 1;
        Layer layer;
        layer.weights = linalg::Matrix(out, in);
        for (std::size_t r = 0; r < out; ++r) {
            // Both engines train in the transposed [input][unit]
            // layout; gather each unit's row out of it.
            double *row = layer.weights.rowData(r);
            for (std::size_t c = 0; c < in; ++c)
                row[c] = wt[li][(c * out + r) * stride];
        }
        layer.bias.resize(out);
        for (std::size_t r = 0; r < out; ++r)
            layer.bias[r] = bias[li][r * stride];
        layers_.push_back(std::move(layer));
        in = out;
    }
    trained_ = true;
}

bool
Mlp::lanesSupport(const MlpConfig &config)
{
    return config.batchSize == 1 && config.hiddenLayers.size() <= 1;
}

void
Mlp::fitLanes(std::span<Mlp> nets, const linalg::Matrix &x,
              std::span<const std::vector<std::size_t>> columns,
              std::span<const std::vector<double>> targets)
{
    util::require(!nets.empty(), "Mlp::fitLanes: no networks");
    util::require(columns.size() == nets.size() &&
                      targets.size() == nets.size(),
                  "Mlp::fitLanes: one column set and one target series "
                  "per network");
    const MlpConfig &shape = nets[0].config_;
    bool laned = lanesSupport(shape);
    for (std::size_t l = 0; l < nets.size(); ++l) {
        util::require(columns[l].size() == columns[0].size(),
                      "Mlp::fitLanes: every network needs the same "
                      "feature count");
        MlpConfig cfg = nets[l].config_;
        cfg.seed = shape.seed;
        laned = laned && cfg == shape;
    }
    if (!laned) {
        for (std::size_t l = 0; l < nets.size(); ++l)
            nets[l].fit(x.selectColumns(columns[l]), targets[l]);
        return;
    }

    util::require(x.rows() >= 1, "Mlp::fit: needs at least one instance");
    util::require(!columns[0].empty(),
                  "Mlp::fit: needs at least one feature");
    // A column's range (and so its normalized values) depends on that
    // column alone: normalizing the shared matrix once hands every
    // lane exactly the inputs and feature ranges fit() would compute
    // from its own column selection.
    linalg::Matrix normalized;
    RangeNormalizer shared;
    if (shape.normalize) {
        shared.fit(x);
        normalized = shared.transform(x);
    }
    const linalg::Matrix &xn = shape.normalize ? normalized : x;
    std::vector<std::vector<double>> yn(targets.begin(), targets.end());
    for (std::size_t l = 0; l < nets.size(); ++l) {
        Mlp &net = nets[l];
        util::require(targets[l].size() == x.rows(),
                      "Mlp::fit: row count mismatch");
        for (std::size_t c : columns[l])
            util::require(c < x.cols(), "Mlp::fitLanes: no such column");
        net.input_size_ = columns[l].size();
        net.resolveHidden(net.input_size_);
        if (shape.normalize) {
            net.featureNorm_ = shared.selectFeatures(columns[l]);
            net.targetNorm_.fitSeries(targets[l]);
            for (double &v : yn[l])
                v = net.targetNorm_.transformScalar(v);
        }
    }

    const std::span<const std::vector<double>> yn_all(yn);
    for (std::size_t g0 = 0; g0 < nets.size(); g0 += simd::kMlpLanes) {
        const std::size_t k =
            std::min(simd::kMlpLanes, nets.size() - g0);
        fitLaneGroup(nets.subspan(g0, k), xn, columns.subspan(g0, k),
                     yn_all.subspan(g0, k));
    }
}

void
Mlp::fitLaneGroup(std::span<Mlp> nets, const linalg::Matrix &xn,
                  std::span<const std::vector<std::size_t>> columns,
                  std::span<const std::vector<double>> yn)
{
    constexpr std::size_t kS = simd::kMlpLanes;
    const MlpConfig &cfg = nets[0].config_;
    const std::size_t k = nets.size();
    const std::size_t n = xn.rows();
    const std::size_t in = nets[0].input_size_;
    const std::size_t hidden = nets[0].hidden_[0];

    obs::TraceSpan span("mlp_fit_lanes", "ml");
    span.arg("lanes", static_cast<std::uint64_t>(k));
    span.arg("rows", static_cast<std::uint64_t>(n));
    span.arg("epochs", static_cast<std::uint64_t>(cfg.epochs));

    LaneWorkspace &ws = threadLaneWorkspace();
    ws.resize(in, hidden, n);
    // Each lane records its losses straight into its network; a lane
    // that diverges gets a fresh history from its restart.
    for (Mlp &net : nets)
        net.loss_history_.assign(cfg.epochs, 0.0);

    // Each lane draws its initial weights from its own generator in
    // the per-sample engine's order: per layer, per unit, the incoming
    // weights input-ascending, then the bias.
    std::vector<util::Rng> rngs;
    rngs.reserve(k);
    const double range = kInitWeightRange;
    for (std::size_t l = 0; l < k; ++l) {
        util::Rng &rng = rngs.emplace_back(nets[l].config_.seed);
        for (std::size_t r = 0; r < hidden; ++r) {
            for (std::size_t c = 0; c < in; ++c)
                ws.w1[(c * hidden + r) * kS + l] = rng.uniform(-range, range);
            ws.b1[r * kS + l] = rng.uniform(-range, range);
        }
        for (std::size_t c = 0; c < hidden; ++c)
            ws.w2[c * kS + l] = rng.uniform(-range, range);
        ws.b2[l] = rng.uniform(-range, range);
    }

    simd::MlpLaneStep step{k,
                           in,
                           hidden,
                           kLearningRate,
                           kMomentum,
                           ws.x,
                           ws.y,
                           ws.w1,
                           ws.pw1,
                           ws.b1,
                           ws.pb1,
                           ws.w2,
                           ws.pw2,
                           ws.b2,
                           ws.pb2,
                           ws.act,
                           ws.delta,
                           ws.sse};
    // The arena's promise: every operand starts on a 64-byte line.
    assert(std::ranges::all_of(
        std::initializer_list<const double *>{
            step.x, step.y, step.w1, step.pw1, step.b1, step.pb1, step.w2,
            step.pw2, step.b2, step.pb2, step.act, step.delta, step.sse},
        [](const double *p) {
            const auto address = reinterpret_cast<std::uintptr_t>(p);
            return address % LaneWorkspace::kAlign == 0;
        }));
    const simd::KernelTable &kt = simd::kernels();
    std::vector<bool> live(k, true);
    std::size_t n_live = k;
    for (std::size_t epoch = 0; epoch < cfg.epochs && n_live > 0; ++epoch) {
        for (std::size_t l = 0; l < k; ++l)
            if (live[l])
                rngs[l].shuffle(ws.visit[l]);
        std::fill_n(ws.sse, kS, 0.0);
        for (std::size_t vi = 0; vi < n; ++vi) {
            for (std::size_t l = 0; l < k; ++l) {
                if (!live[l])
                    continue;
                const std::size_t i = ws.visit[l][vi];
                const double *row = xn.rowData(i);
                const std::size_t *cols = columns[l].data();
                for (std::size_t c = 0; c < in; ++c)
                    ws.x[c * kS + l] = row[cols[c]];
                ws.y[l] = yn[l][i];
            }
            kt.mlpLaneStep(step);
        }
        // Each lane's own divergence check, as trainOnce runs it.
        for (std::size_t l = 0; l < k; ++l) {
            if (!live[l])
                continue;
            std::vector<double> &loss = nets[l].loss_history_;
            loss[epoch] = ws.sse[l] / static_cast<double>(n);
            const double bound =
                kDivergenceFactor * std::max(loss[0], 1e-6);
            if (!std::isfinite(loss[epoch]) || loss[epoch] > bound) {
                live[l] = false;
                --n_live;
                ws.clearLane(l);
                mlpMetrics().epochs.inc(epoch + 1);
                mlpMetrics().laneDropouts.inc();
            }
        }
    }

    for (std::size_t l = 0; l < k; ++l) {
        Mlp &net = nets[l];
        if (live[l]) {
            mlpMetrics().epochs.inc(cfg.epochs);
            mlpMetrics().fits.inc();
            const double *wt[] = {ws.w1 + l, ws.w2 + l};
            const double *bias[] = {ws.b1 + l, ws.b2 + l};
            net.publish(wt, bias, kS);
            continue;
        }
        // Attempt 0 diverged: retry alone, exactly as fit() goes on.
        static_assert(kMaxRestarts > 0);
        util::debug("Mlp::fit: attempt 1 diverged; retrying with "
                    "learning rate " +
                    std::to_string(kLearningRate * 0.5));
        mlpMetrics().retries.inc();
        net.trainAndPublish(xn.selectColumns(columns[l]), yn[l],
                            threadWorkspace(), 1, kLearningRate * 0.5);
    }
}

bool
Mlp::trainOnce(const linalg::Matrix &xn, const std::vector<double> &yn,
               double lr_base, std::uint64_t seed, MlpWorkspace &ws) const
{
    if (config_.batchSize != 1)
        return trainOnceBatched(xn, yn, lr_base, seed, ws);

    const std::vector<std::size_t> &sizes = ws.sizes_;
    const std::size_t n_layers = sizes.size() - 1;
    // One dispatch lookup per fit; the per-sample loops below call the
    // resolved table directly.
    const simd::KernelTable &kt = simd::kernels();

    // Initialize weights. The RNG draw order (per layer, per output
    // unit: all incoming weights in ascending input order, then the
    // bias) matches the pre-workspace implementation exactly, so the
    // same seed yields bit-identical networks. Storage is transposed
    // ([input][unit], unit index fastest), so the draws land at strided
    // positions — but only once per fit.
    util::Rng rng(seed);
    for (std::size_t li = 0; li < n_layers; ++li) {
        const std::size_t in = sizes[li];
        const std::size_t out = sizes[li + 1];
        double *__restrict wt = ws.weights_.data() + ws.wOff_[li];
        double *__restrict bias = ws.bias_.data() + ws.uOff_[li + 1];
        for (std::size_t r = 0; r < out; ++r) {
            for (std::size_t c = 0; c < in; ++c)
                wt[c * out + r] =
                    rng.uniform(-kInitWeightRange, kInitWeightRange);
            bias[r] = rng.uniform(-kInitWeightRange, kInitWeightRange);
        }
    }
    std::fill(ws.prevDw_.begin(), ws.prevDw_.end(), 0.0);
    std::fill(ws.prevDb_.begin(), ws.prevDb_.end(), 0.0);

    // Stochastic backpropagation with momentum.
    const std::size_t n = xn.rows();
    for (std::size_t i = 0; i < n; ++i)
        ws.visit_[i] = i;

    for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
        rng.shuffle(ws.visit_);

        double sse = 0.0;
        for (std::size_t vi = 0; vi < n; ++vi) {
            const std::size_t i = ws.visit_[vi];
            const double *__restrict input = xn.rowData(i);

            // Forward pass over the transposed weight layout.
            for (std::size_t li = 0; li < n_layers; ++li) {
                const std::size_t out = sizes[li + 1];
                double *a_out = ws.acts_.data() + ws.uOff_[li + 1];
                kt.mlpLayerNets(sizes[li], out,
                                ws.weights_.data() + ws.wOff_[li],
                                ws.bias_.data() + ws.uOff_[li + 1],
                                li == 0 ? input
                                        : ws.acts_.data() + ws.uOff_[li],
                                a_out);
                if (li + 1 < n_layers)
                    kt.sigmoid(out, a_out);
            }
            const double pred = ws.acts_[ws.uOff_[n_layers]];
            const double err = yn[i] - pred;
            // Summed in this epoch's visit order, fixed by the seed:
            // dtrank-analyze-ignore(no-fp-accumulate)
            sse += err * err;

            // Backward pass: deltas_[uOff_[l+1] + j] = dE/d(net_j) at
            // layer l; the output unit is linear.
            ws.deltas_[ws.uOff_[n_layers]] = err;
            for (std::size_t lk = n_layers - 1; lk-- > 0;) {
                const std::size_t width = sizes[lk + 1];
                double *d = ws.deltas_.data() + ws.uOff_[lk + 1];
                kt.mlpLayerDeltas(width, sizes[lk + 2],
                                  ws.weights_.data() + ws.wOff_[lk + 1],
                                  ws.deltas_.data() + ws.uOff_[lk + 2],
                                  d);
                scaleBySigmoidDerivative(
                    width, ws.acts_.data() + ws.uOff_[lk + 1], d);
            }

            // Weight updates with momentum.
            for (std::size_t lk = 0; lk < n_layers; ++lk)
                kt.mlpUpdateLayer(sizes[lk], sizes[lk + 1], lr_base,
                                  kMomentum,
                                  lk == 0 ? input
                                          : ws.acts_.data() + ws.uOff_[lk],
                                  ws.deltas_.data() + ws.uOff_[lk + 1],
                                  ws.weights_.data() + ws.wOff_[lk],
                                  ws.prevDw_.data() + ws.wOff_[lk],
                                  ws.bias_.data() + ws.uOff_[lk + 1],
                                  ws.prevDb_.data() + ws.uOff_[lk + 1]);
        }
        ws.loss_[epoch] = sse / static_cast<double>(n);
        const double bound =
            kDivergenceFactor * std::max(ws.loss_[0], 1e-6);
        if (!std::isfinite(ws.loss_[epoch]) || ws.loss_[epoch] > bound) {
            mlpMetrics().epochs.inc(epoch + 1);
            return false;
        }
    }
    mlpMetrics().epochs.inc(config_.epochs);
    return true;
}

bool
Mlp::trainOnceBatched(const linalg::Matrix &xn,
                      const std::vector<double> &yn, double lr_base,
                      std::uint64_t seed, MlpWorkspace &ws) const
{
    const std::vector<std::size_t> &sizes = ws.sizes_;
    const std::size_t n_layers = sizes.size() - 1;
    const simd::KernelTable &kt = simd::kernels();
    const std::size_t n = xn.rows();
    const std::size_t batch = config_.batchSize == 0
                                  ? n
                                  : std::min(config_.batchSize, n);
    // Row stride of the per-layer batch blocks; >= any bn used below.
    const std::size_t stride = ws.batchRows_;

    // Initialize weights with the exact RNG draw order of the
    // per-sample engine (per layer, per output unit: incoming weights
    // input-ascending, then the bias), so the same seed starts both
    // engines from the identical network. Storage is the same
    // transposed ([input][unit]) layout the per-sample engine uses:
    // each layer is the panel whose rows the mlpBatchNets forward
    // kernel streams contiguously, and publication needs no special
    // case.
    util::Rng rng(seed);
    for (std::size_t li = 0; li < n_layers; ++li) {
        const std::size_t in = sizes[li];
        const std::size_t out = sizes[li + 1];
        double *__restrict wt = ws.weights_.data() + ws.wOff_[li];
        double *__restrict bias = ws.bias_.data() + ws.uOff_[li + 1];
        for (std::size_t r = 0; r < out; ++r) {
            for (std::size_t c = 0; c < in; ++c)
                wt[c * out + r] =
                    rng.uniform(-kInitWeightRange, kInitWeightRange);
            bias[r] = rng.uniform(-kInitWeightRange, kInitWeightRange);
        }
    }
    std::fill(ws.prevDw_.begin(), ws.prevDw_.end(), 0.0);
    std::fill(ws.prevDb_.begin(), ws.prevDb_.end(), 0.0);

    for (std::size_t i = 0; i < n; ++i)
        ws.visit_[i] = i;

    for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
        rng.shuffle(ws.visit_);

        double sse = 0.0;
        for (std::size_t b0 = 0; b0 < n; b0 += batch) {
            const std::size_t bn = std::min(batch, n - b0);

            // Gather the batch rows into the layer-0 activation block
            // (visit order scatters them across xn).
            const std::size_t in0 = sizes[0];
            double *a0 = ws.actsB_.data();
            for (std::size_t s = 0; s < bn; ++s) {
                const double *src = xn.rowData(ws.visit_[b0 + s]);
                std::copy(src, src + in0, a0 + s * in0);
            }

            // Forward: per layer, one whole-batch GEMM through the
            // kernel table (each sample row gets the exact per-sample
            // mlpLayerNets arithmetic, so the batched forward is
            // bit-identical to the per-sample engine's; the in-kernel
            // sample loop overlaps samples), then the activation
            // sweep over the whole bn x out block.
            for (std::size_t li = 0; li < n_layers; ++li) {
                const std::size_t in = sizes[li];
                const std::size_t out = sizes[li + 1];
                const double *a_in =
                    ws.actsB_.data() + ws.uOff_[li] * stride;
                double *a_out =
                    ws.actsB_.data() + ws.uOff_[li + 1] * stride;
                const double *wt = ws.weights_.data() + ws.wOff_[li];
                const double *bias = ws.bias_.data() + ws.uOff_[li + 1];
                kt.mlpBatchNets(bn, in, out, a_in, in, wt, bias, a_out,
                                out);
                if (li + 1 < n_layers)
                    kt.sigmoid(bn * out, a_out);
            }

            // Output deltas and the epoch loss (batch order is visit
            // order, so the sse accumulation is deterministic).
            const double *preds =
                ws.actsB_.data() + ws.uOff_[n_layers] * stride;
            double *d_out =
                ws.deltasB_.data() + ws.uOff_[n_layers] * stride;
            for (std::size_t s = 0; s < bn; ++s) {
                const double err = yn[ws.visit_[b0 + s]] - preds[s];
                // Batch order is visit order, fixed by the seed:
                // dtrank-analyze-ignore(no-fp-accumulate)
                sse += err * err;
                d_out[s] = err; // linear output unit
            }

            // Backward: the per-sample delta recurrence kernel over
            // the transposed layout (canonical dot per unit against
            // the successor layer's contiguous weight row; an
            // elementwise product when the successor has one unit).
            for (std::size_t lk = n_layers - 1; lk-- > 0;) {
                const std::size_t width = sizes[lk + 1];
                const std::size_t width_next = sizes[lk + 2];
                double *d =
                    ws.deltasB_.data() + ws.uOff_[lk + 1] * stride;
                const double *d_next =
                    ws.deltasB_.data() + ws.uOff_[lk + 2] * stride;
                const double *w_next =
                    ws.weights_.data() + ws.wOff_[lk + 1];
                for (std::size_t s = 0; s < bn; ++s)
                    kt.mlpLayerDeltas(width, width_next, w_next,
                                      d_next + s * width_next,
                                      d + s * width);
                scaleBySigmoidDerivative(
                    bn * width,
                    ws.actsB_.data() + ws.uOff_[lk + 1] * stride, d);
            }

            // Gradient sums over the batch: the fused batch kernel
            // overwrites gw with sample-ascending rank-1 adds from
            // zero (elementwise, so tier-independent — identical bits
            // to a per-sample accumulation sweep), then ONE batch-mean
            // momentum update per layer. The gradient matrix is
            // unit-major ([unit][input], contiguous rows); the
            // momentum step transposes it onto the [input][unit]
            // weight storage once per batch.
            for (std::size_t lk = 0; lk < n_layers; ++lk) {
                const std::size_t in = sizes[lk];
                const std::size_t out = sizes[lk + 1];
                double *gw = ws.gradW_.data() + ws.wOff_[lk];
                double *gb = ws.gradB_.data() + ws.uOff_[lk + 1];
                std::fill(gb, gb + out, 0.0);
                const double *a_in =
                    ws.actsB_.data() + ws.uOff_[lk] * stride;
                const double *d =
                    ws.deltasB_.data() + ws.uOff_[lk + 1] * stride;
                kt.mlpGradAccum(bn, out, in, d, out, a_in, in, gw);
                for (std::size_t s = 0; s < bn; ++s)
                    kt.axpy(gb, d + s * out, 1.0, out);
                const double step = lr_base / static_cast<double>(bn);
                momentumUpdateTransposed(
                    ws.weights_.data() + ws.wOff_[lk],
                    ws.prevDw_.data() + ws.wOff_[lk], gw, step, kMomentum,
                    in, out);
                momentumUpdate(ws.bias_.data() + ws.uOff_[lk + 1],
                               ws.prevDb_.data() + ws.uOff_[lk + 1], gb,
                               step, kMomentum, out);
            }
        }
        ws.loss_[epoch] = sse / static_cast<double>(n);
        const double bound =
            kDivergenceFactor * std::max(ws.loss_[0], 1e-6);
        if (!std::isfinite(ws.loss_[epoch]) || ws.loss_[epoch] > bound) {
            mlpMetrics().epochs.inc(epoch + 1);
            return false;
        }
    }
    mlpMetrics().epochs.inc(config_.epochs);
    return true;
}

std::vector<std::vector<double>>
Mlp::forward(const std::vector<double> &input) const
{
    std::vector<std::vector<double>> outputs;
    outputs.reserve(layers_.size() + 1);
    outputs.push_back(input);
    for (const Layer &layer : layers_) {
        const std::vector<double> &prev = outputs.back();
        std::vector<double> next(layer.weights.rows(), 0.0);
        // bias + canonical dot per unit: the same formulation as the
        // batched predictColumns(), so scalar and batched predictions
        // stay bit-identical at every dispatch tier.
        for (std::size_t r = 0; r < layer.weights.rows(); ++r)
            next[r] = layer.bias[r] + simd::dot(layer.weights.rowData(r),
                                                prev.data(),
                                                layer.weights.cols());
        if (&layer != &layers_.back())
            simd::sigmoid(next.size(), next.data());
        outputs.push_back(std::move(next));
    }
    return outputs;
}

double
Mlp::forwardScalar(const std::vector<double> &input) const
{
    return forward(input).back()[0];
}

double
Mlp::predict(const std::vector<double> &features) const
{
    util::require(trained_, "Mlp::predict: model not trained");
    util::require(features.size() == input_size_,
                  "Mlp::predict: feature count mismatch");
    std::vector<double> in = features;
    if (config_.normalize)
        in = featureNorm_.transform(features);
    const double out = forwardScalar(in);
    if (config_.normalize)
        return targetNorm_.inverseTransformScalar(out);
    return out;
}

std::vector<double>
Mlp::predictColumns(const linalg::Matrix &xt) const
{
    util::require(trained_, "Mlp::predictColumns: model not trained");
    util::require(xt.rows() == input_size_,
                  "Mlp::predictColumns: feature count mismatch");
    const std::size_t m = xt.cols();
    std::vector<double> out(m);
    if (m == 0)
        return out;

    // Per tile of samples, every layer's activations live in tile
    // scratch (unit-major, one row of `tile` lanes per unit), so the
    // whole network runs cache-resident and the call holds no buffer
    // that grows with m beyond `out`.
    constexpr std::size_t kTile = 256;
    const std::size_t tile = std::min(m, kTile);
    std::size_t widest = 0;
    for (const Layer &layer : layers_)
        widest = std::max(widest, layer.weights.rows());
    std::vector<double> normalized(config_.normalize ? input_size_ * tile
                                                     : 0);
    std::vector<double> acts(2 * widest * tile);
    const simd::KernelTable &kt = simd::kernels();

    for (std::size_t i0 = 0; i0 < m; i0 += tile) {
        const std::size_t w = std::min(tile, m - i0);
        const double *in = xt.rowData(0) + i0;
        std::size_t ld = m;
        if (config_.normalize) {
            for (std::size_t c = 0; c < input_size_; ++c)
                featureNorm_.transformFeature(c, xt.rowData(c) + i0,
                                              normalized.data() + c * w,
                                              w);
            in = normalized.data();
            ld = w;
        }
        double *next = acts.data();
        for (const Layer &layer : layers_) {
            const std::size_t units = layer.weights.rows();
            simd::gemmDotColumns(kt, w, units, layer.weights.cols(), in,
                                 ld, layer.weights.rowData(0),
                                 layer.weights.cols(), layer.bias.data(),
                                 next, w);
            if (&layer != &layers_.back())
                kt.sigmoid(units * w, next);
            in = next;
            ld = w;
            next = next == acts.data() ? acts.data() + widest * tile
                                       : acts.data();
        }
        for (std::size_t i = 0; i < w; ++i)
            out[i0 + i] = config_.normalize
                              ? targetNorm_.inverseTransformScalar(in[i])
                              : in[i];
    }
    return out;
}

double
Mlp::trainingMse() const
{
    util::require(trained_, "Mlp::trainingMse: model not trained");
    return loss_history_.back();
}

} // namespace dtrank::ml
