#include "baseline/ga_knn.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "obs/trace.h"
#include "simd/simd.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dtrank::baseline
{

namespace
{

/**
 * Orders candidate indices by weighted squared distance to the query,
 * keeping the first `k`, deterministic under ties.
 */
std::vector<std::size_t>
nearestByWeightedDistance(const std::vector<double> &query,
                          const linalg::Matrix &candidates,
                          const std::vector<double> &weights,
                          std::size_t k,
                          std::size_t exclude = SIZE_MAX)
{
    const std::size_t n = candidates.rows();
    std::vector<double> d2(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        d2[i] = simd::weightedSquaredDistance(query.data(),
                                              candidates.rowData(i),
                                              weights.data(),
                                              candidates.cols());

    std::vector<std::size_t> order;
    order.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        if (i != exclude)
            order.push_back(i);
    const std::size_t take = std::min(k, order.size());
    std::partial_sort(order.begin(),
                      order.begin() + static_cast<std::ptrdiff_t>(take),
                      order.end(),
                      [&](std::size_t a, std::size_t b) {
                          if (d2[a] != d2[b])
                              return d2[a] < d2[b];
                          return a < b;
                      });
    order.resize(take);
    return order;
}

/** Inverse-distance weights are 1 / (sqrt(d2) + kEps). */
constexpr double kEps = 1e-9;

/**
 * Training machines per fitness tile: every group's error terms for
 * one tile are live at once, so scratch stays O(population) per tile
 * instead of O(population x machines).
 */
constexpr std::size_t kMachineTile = 64;

/**
 * Neighbour weights: 1 under Uniform, 1 / (sqrt(d2) + eps) under
 * InverseDistance.
 */
void
neighborWeights(ml::KnnWeighting weighting, const double *nn_d2,
                std::size_t k, double *w)
{
    for (std::size_t idx = 0; idx < k; ++idx)
        w[idx] = weighting == ml::KnnWeighting::Uniform
                     ? 1.0
                     : 1.0 / (std::sqrt(nn_d2[idx]) + kEps);
}

/**
 * The kNN combine over machines [lo, hi): num[m - lo] is the sum of
 * w[idx] * scores(nn[idx], m) over the neighbours observed on m, added
 * in neighbour order, and the prediction is num over the sum of the
 * same neighbours' weights. Dense scores (mask null) sweep each
 * neighbour's contiguous score row with one axpy: elementwise, so
 * every machine sees exactly the per-machine gather's adds in its
 * order. The training fitness and predictApp both combine here.
 *
 * @return Dense: the weight sum every machine shares (den untouched).
 *         Masked: 0, with den[m - lo] the machine's own weight sum
 *         (0 when no neighbour is observed on m).
 */
double
combineNeighbors(const std::size_t *nn, const double *w, std::size_t k,
                 const linalg::Matrix &scores,
                 const dataset::ScoreMask *mask, std::size_t lo,
                 std::size_t hi, double *num, double *den)
{
    const std::size_t len = hi - lo;
    std::fill_n(num, len, 0.0);
    if (mask == nullptr) {
        double wsum = 0.0;
        for (std::size_t idx = 0; idx < k; ++idx) {
            simd::axpy(num, scores.rowData(nn[idx]) + lo, w[idx], len);
            // Sequential in neighbour order, as the per-machine
            // combine sums its weights:
            // dtrank-analyze-ignore(no-fp-accumulate)
            wsum += w[idx];
        }
        return wsum;
    }
    std::fill_n(den, len, 0.0);
    for (std::size_t idx = 0; idx < k; ++idx) {
        const double *row = scores.rowData(nn[idx]);
        for (std::size_t m = lo; m < hi; ++m) {
            if (!mask->valid(nn[idx], m))
                continue;
            num[m - lo] += w[idx] * row[m];
            den[m - lo] += w[idx];
        }
    }
    return 0.0;
}

/** Order-sensitive hash of a neighbour list. */
std::uint64_t
listHash(const std::size_t *nn, std::size_t k)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t idx = 0; idx < k; ++idx)
        h = (h ^ static_cast<std::uint64_t>(nn[idx])) * 0x100000001b3ULL;
    return h;
}

} // namespace

GaKnnFitness::GaKnnFitness(const linalg::Matrix &characteristics,
                           const linalg::Matrix &train_scores,
                           std::size_t k, ml::KnnWeighting weighting,
                           const dataset::ScoreMask *scores_mask)
    : chars_(characteristics), scores_(train_scores),
      mask_(scores_mask != nullptr && !scores_mask->dense()
                ? scores_mask
                : nullptr),
      k_(k), weighting_(weighting)
{
    const std::size_t n_bench = chars_.rows();
    util::require(k_ >= 1, "GaKnnFitness: k must be >= 1");
    util::require(n_bench >= 2, "GaKnnFitness: needs >= 2 benchmarks");
    util::require(chars_.cols() >= 1,
                  "GaKnnFitness: needs >= 1 characteristic");
    util::require(scores_.rows() == n_bench,
                  "GaKnnFitness: score row mismatch");
    util::require(scores_.cols() >= 1,
                  "GaKnnFitness: needs >= 1 training machine");
    if (mask_ != nullptr)
        util::require(mask_->rows() == n_bench &&
                          mask_->cols() == scores_.cols(),
                      "GaKnnFitness: mask shape mismatch");
    for (std::size_t b = 0; b < n_bench; ++b) {
        for (std::size_t c = 0; c < chars_.cols(); ++c)
            util::require(std::isfinite(chars_(b, c)),
                          "GaKnnFitness: characteristics must be finite");
        // A relative error needs a finite, positive actual score; an
        // Inf or NaN cell would turn every genome's fitness into NaN.
        for (std::size_t m = 0; m < scores_.cols(); ++m)
            if (mask_ == nullptr || mask_->valid(b, m))
                util::require(std::isfinite(scores_(b, m)) &&
                                  scores_(b, m) > 0.0,
                              "GaKnnFitness: observed training scores "
                              "must be finite and positive");
    }
}

std::size_t
GaKnnFitness::groupTerms(std::size_t i, const std::size_t *nn,
                         const double *nn_d2, std::size_t lo,
                         std::size_t hi, double *terms)
{
    const std::size_t k = std::min(k_, chars_.rows() - 1);
    neighborWeights(weighting_, nn_d2, k, weight_.data());
    const double wsum = combineNeighbors(nn, weight_.data(), k, scores_,
                                         mask_, lo, hi, num_.data(),
                                         den_.data());
    const double *actual = scores_.rowData(i) + lo;
    const std::size_t len = hi - lo;
    if (mask_ == nullptr) {
        for (std::size_t m = 0; m < len; ++m)
            terms[m] =
                std::fabs(num_[m] / wsum - actual[m]) / actual[m] * 100.0;
        return len;
    }
    std::size_t count = 0;
    for (std::size_t m = 0; m < len; ++m) {
        // A skipped cell contributes +0.0, which leaves every
        // (non-negative) error sum's bits unchanged.
        terms[m] = 0.0;
        if (den_[m] == 0.0 || !mask_->valid(i, lo + m))
            continue;
        terms[m] =
            std::fabs(num_[m] / den_[m] - actual[m]) / actual[m] * 100.0;
        ++count;
    }
    return count;
}

void
GaKnnFitness::nearest(std::size_t i, std::size_t n)
{
    const std::size_t rows = chars_.rows() - 1;
    const std::size_t k = std::min(k_, rows);
    // Any visiting order yields the same (d2, index)-ordered lists;
    // visiting candidates nearest-first for the batch's first genome
    // makes the first k insertions land nearly in place and most later
    // candidates fail one well-predicted compare, since a population's
    // genomes rank their neighbours alike.
    order_.resize(rows);
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    std::sort(order_.begin(), order_.end(),
              [&](std::size_t a, std::size_t b) {
                  const double da = d2_[a * n];
                  const double db = d2_[b * n];
                  return da != db ? da < db : a < b;
              });
    for (std::size_t g = 0; g < n; ++g) {
        std::size_t *nn = nn_.data() + g * k;
        double *nd = nn_d2_.data() + g * k;
        const auto before = [&](double d, std::size_t j, std::size_t pos) {
            return d < nd[pos] || (d == nd[pos] && j < nn[pos]);
        };
        std::size_t size = 0;
        for (std::size_t r : order_) {
            const double d = d2_[r * n + g];
            const std::size_t j = r < i ? r : r + 1;
            if (size == k && !before(d, j, k - 1))
                continue;
            std::size_t pos = size < k ? size++ : k - 1;
            for (; pos > 0 && before(d, j, pos - 1); --pos) {
                nn[pos] = nn[pos - 1];
                nd[pos] = nd[pos - 1];
            }
            nn[pos] = j;
            nd[pos] = d;
        }
    }
}

std::size_t
GaKnnFitness::evaluate(
    const std::vector<const std::vector<double> *> &genomes,
    double *scores)
{
    const std::size_t n = genomes.size();
    const std::size_t n_bench = chars_.rows();
    const std::size_t n_char = chars_.cols();
    const std::size_t n_machine = scores_.cols();
    const std::size_t rows = n_bench - 1; // candidates besides i
    const std::size_t k = std::min(k_, rows);
    const bool keyed_d2 = weighting_ == ml::KnnWeighting::InverseDistance;
    const std::size_t tile = std::min(kMachineTile, n_machine);

    // Genomes feature-major: gene c of genome g at wt_[c * n + g], the
    // lane layout of the canonical-dot GEMM.
    wt_.resize(n_char * n);
    for (std::size_t g = 0; g < n; ++g) {
        util::require(genomes[g]->size() == n_char,
                      "GaKnnFitness::evaluate: genome length mismatch");
        for (std::size_t c = 0; c < n_char; ++c)
            wt_[c * n + g] = (*genomes[g])[c];
    }
    slab_.resize(rows * n_char);
    zero_.assign(rows, 0.0);
    d2_.resize(rows * n);
    nn_.resize(n * k);
    nn_d2_.resize(n * k);
    hash_.resize(n);
    group_of_.resize(n);
    leaders_.clear();
    err_.assign(n, 0.0);
    count_.assign(n, 0);
    group_count_.resize(n);
    num_.resize(tile);
    den_.resize(tile);
    terms_.resize(n * tile);
    weight_.resize(k);

    const simd::KernelTable &kt = simd::kernels();
    std::size_t distinct = 0;
    for (std::size_t i = 0; i < n_bench; ++i) {
        // Squared characteristic differences from benchmark i; row r is
        // candidate j = r + (r >= i).
        for (std::size_t r = 0; r < rows; ++r) {
            const std::size_t j = r < i ? r : r + 1;
            for (std::size_t c = 0; c < n_char; ++c) {
                const double diff = chars_(i, c) - chars_(j, c);
                slab_[r * n_char + c] = diff * diff;
            }
        }
        // d2_[r * n + g] = 0 + dot(genome g, row r): each entry the
        // bits of simd::dot(w, pair) in every tier.
        simd::gemmDotColumns(kt, n, rows, n_char, wt_.data(), n,
                             slab_.data(), n_char, zero_.data(),
                             d2_.data(), n);
        nearest(i, n);

        // Genomes with equal neighbour lists (and, when the weights
        // depend on them, equal distances) form one group, which
        // sweeps its neighbours once.
        leaders_.clear();
        for (std::size_t g = 0; g < n; ++g) {
            const std::size_t *list = nn_.data() + g * k;
            const double *dist = nn_d2_.data() + g * k;
            hash_[g] = listHash(list, k);
            std::size_t q = 0;
            for (; q < leaders_.size(); ++q) {
                const std::size_t h = leaders_[q];
                if (hash_[h] == hash_[g] &&
                    std::memcmp(nn_.data() + h * k, list,
                                k * sizeof(std::size_t)) == 0 &&
                    (!keyed_d2 ||
                     std::memcmp(nn_d2_.data() + h * k, dist,
                                 k * sizeof(double)) == 0))
                    break;
            }
            if (q == leaders_.size())
                leaders_.push_back(g);
            group_of_[g] = q;
        }
        distinct += leaders_.size();
        std::fill_n(group_count_.begin(), leaders_.size(), 0);

        for (std::size_t lo = 0; lo < n_machine; lo += tile) {
            const std::size_t hi = std::min(n_machine, lo + tile);
            const std::size_t len = hi - lo;
            for (std::size_t q = 0; q < leaders_.size(); ++q) {
                const std::size_t h = leaders_[q];
                group_count_[q] +=
                    groupTerms(i, nn_.data() + h * k, nn_d2_.data() + h * k,
                               lo, hi, terms_.data() + q * tile);
            }
            // Each genome's error sum takes its group's terms in
            // (i, m) order — the order the pinned GA trajectories fix.
            // Four genomes at a time only hide the add latency.
            const auto terms_of = [&](std::size_t g) {
                return terms_.data() + group_of_[g] * tile;
            };
            std::size_t g = 0;
            for (; g + 4 <= n; g += 4) {
                const double *t0 = terms_of(g);
                const double *t1 = terms_of(g + 1);
                const double *t2 = terms_of(g + 2);
                const double *t3 = terms_of(g + 3);
                double e0 = err_[g];
                double e1 = err_[g + 1];
                double e2 = err_[g + 2];
                double e3 = err_[g + 3];
                for (std::size_t m = 0; m < len; ++m) {
                    e0 += t0[m]; // dtrank-analyze-ignore(no-fp-accumulate)
                    e1 += t1[m]; // dtrank-analyze-ignore(no-fp-accumulate)
                    e2 += t2[m]; // dtrank-analyze-ignore(no-fp-accumulate)
                    e3 += t3[m]; // dtrank-analyze-ignore(no-fp-accumulate)
                }
                err_[g] = e0;
                err_[g + 1] = e1;
                err_[g + 2] = e2;
                err_[g + 3] = e3;
            }
            for (; g < n; ++g) {
                const double *t = terms_of(g);
                double e = err_[g];
                for (std::size_t m = 0; m < len; ++m)
                    e += t[m]; // dtrank-analyze-ignore(no-fp-accumulate)
                err_[g] = e;
            }
        }
        for (std::size_t g = 0; g < n; ++g)
            count_[g] += group_count_[group_of_[g]];
    }

    for (std::size_t g = 0; g < n; ++g) {
        util::require(count_[g] > 0,
                      "GaKnnModel::train: no observed cell admits a "
                      "leave-one-out prediction");
        scores[g] = -err_[g] / static_cast<double>(count_[g]);
    }
    return distinct;
}

GaKnnModel::GaKnnModel(GaKnnConfig config) : config_(config)
{
    util::require(config_.k >= 1, "GaKnnModel: k must be >= 1");
}

void
GaKnnModel::train(const linalg::Matrix &characteristics,
                  const linalg::Matrix &train_scores,
                  const dataset::ScoreMask *scores_mask)
{
    GaKnnFitness fitness(characteristics, train_scores, config_.k,
                         config_.weighting, scores_mask);
    const std::size_t n_char = characteristics.cols();
    const ml::GeneticAlgorithm ga(config_.ga,
                                  std::vector<double>(n_char, 0.0),
                                  std::vector<double>(n_char, 1.0));
    util::Rng rng(config_.seed);
    const ml::GaResult result = ga.optimize(
        [&](const std::vector<const std::vector<double> *> &genomes,
            double *scores, obs::TraceSpan &span) {
            span.arg("distinct_lists",
                     static_cast<std::uint64_t>(
                         fitness.evaluate(genomes, scores)));
        },
        rng);

    weights_ = result.bestGenome;
    training_fitness_ = result.bestFitness;
    trained_ = true;
}

void
GaKnnModel::restore(std::vector<double> weights, double training_fitness)
{
    util::require(!weights.empty(),
                  "GaKnnModel::restore: weights must not be empty");
    weights_ = std::move(weights);
    training_fitness_ = training_fitness;
    trained_ = true;
}

const std::vector<double> &
GaKnnModel::weights() const
{
    util::require(trained_, "GaKnnModel: not trained");
    return weights_;
}

double
GaKnnModel::trainingFitness() const
{
    util::require(trained_, "GaKnnModel: not trained");
    return training_fitness_;
}

std::vector<std::size_t>
GaKnnModel::neighbors(const std::vector<double> &app_characteristics,
                      const linalg::Matrix &candidate_chars,
                      std::size_t exclude_row) const
{
    util::require(trained_, "GaKnnModel: not trained");
    util::require(app_characteristics.size() == candidate_chars.cols(),
                  "GaKnnModel::neighbors: characteristic count mismatch");
    util::require(candidate_chars.cols() == weights_.size(),
                  "GaKnnModel::neighbors: trained on a different "
                  "characteristic count");
    return nearestByWeightedDistance(app_characteristics, candidate_chars,
                                     weights_, config_.k, exclude_row);
}

std::vector<double>
GaKnnModel::predictApp(const std::vector<double> &app_characteristics,
                       const linalg::Matrix &candidate_chars,
                       const linalg::Matrix &candidate_scores,
                       std::size_t exclude_row,
                       const dataset::ScoreMask *scores_mask) const
{
    util::require(trained_, "GaKnnModel: not trained");
    util::require(candidate_chars.rows() == candidate_scores.rows(),
                  "GaKnnModel::predictApp: candidate row mismatch");
    util::require(config_.predictTile >= 1,
                  "GaKnnModel::predictApp: predictTile must be >= 1");
    const auto nn =
        neighbors(app_characteristics, candidate_chars, exclude_row);
    DTRANK_ASSERT(!nn.empty());

    const std::size_t n_target = candidate_scores.cols();
    if (scores_mask != nullptr && scores_mask->dense())
        scores_mask = nullptr;
    if (scores_mask != nullptr)
        util::require(scores_mask->rows() == candidate_scores.rows() &&
                          scores_mask->cols() == n_target,
                      "GaKnnModel::predictApp: mask shape mismatch");

    std::vector<double> nn_d2(nn.size());
    for (std::size_t idx = 0; idx < nn.size(); ++idx)
        nn_d2[idx] = simd::weightedSquaredDistance(
            app_characteristics.data(), candidate_chars.rowData(nn[idx]),
            weights_.data(), candidate_chars.cols());
    std::vector<double> weight(nn.size());
    neighborWeights(config_.weighting, nn_d2.data(), nn.size(),
                    weight.data());

    // Tiles of target machines write disjoint ranges, so the thread
    // count cannot change a bit. Under a mask, a machine where no
    // neighbour is observed falls back to its column's observed mean.
    std::vector<double> out(n_target, 0.0);
    const std::size_t tile = config_.predictTile;
    const std::size_t n_tiles = (n_target + tile - 1) / tile;
    util::parallelFor(
        config_.predictThreads, n_tiles, [&](std::size_t ti) {
            const std::size_t lo = ti * tile;
            const std::size_t hi = std::min(n_target, lo + tile);
            std::vector<double> den(scores_mask != nullptr ? hi - lo : 0);
            const double shared = combineNeighbors(
                nn.data(), weight.data(), nn.size(), candidate_scores,
                scores_mask, lo, hi, out.data() + lo, den.data());
            std::vector<double> col;
            for (std::size_t m = lo; m < hi; ++m) {
                const double denom =
                    scores_mask == nullptr ? shared : den[m - lo];
                if (denom != 0.0) {
                    out[m] = out[m] / denom;
                    continue;
                }
                const std::size_t observed =
                    scores_mask->observedInColumn(m);
                if (observed == 0) {
                    out[m] = 1.0; // nothing observed at all
                    continue;
                }
                col.resize(candidate_scores.rows());
                for (std::size_t r = 0; r < candidate_scores.rows(); ++r)
                    col[r] = candidate_scores(r, m);
                const auto words = scores_mask->columnWords(m);
                const double sum = simd::kernels().maskedSum(
                    col.data(), words.data(), col.size());
                out[m] = sum / static_cast<double>(observed);
            }
        });
    return out;
}

} // namespace dtrank::baseline
