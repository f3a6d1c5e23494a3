#include "ml/genetic.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"

namespace dtrank::ml
{

namespace
{

/** Probability of applying crossover to a selected pair. */
constexpr double kCrossoverRate = 0.9;
/** Per-gene mutation probability. */
constexpr double kMutationRate = 0.1;
/** Stddev of Gaussian mutation relative to the gene range. */
constexpr double kMutationSigma = 0.1;
/** Tournament size for parent selection. */
constexpr std::size_t kTournamentSize = 3;
/** Number of top individuals copied unchanged each generation. */
constexpr std::size_t kEliteCount = 2;
/** BLX-alpha blend crossover exploration parameter. */
constexpr double kBlendAlpha = 0.3;

/** GA-wide counters, registered once on first optimize (cold path). */
struct GaMetrics
{
    obs::Counter &generations;
    obs::Counter &evaluations;
    obs::Counter &carried;
};

const GaMetrics &
gaMetrics()
{
    static const GaMetrics metrics{
        obs::MetricsRegistry::global().counter(
            "dtrank_ga_generations_total", "GA generations evolved"),
        obs::MetricsRegistry::global().counter(
            "dtrank_ga_evaluations_total",
            "Fitness evaluations actually executed"),
        obs::MetricsRegistry::global().counter(
            "dtrank_ga_carried_total",
            "Scores carried forward to elites and unchanged children "
            "instead of evaluated")};
    return metrics;
}

} // namespace

GeneticAlgorithm::GeneticAlgorithm(GaConfig config,
                                   std::vector<double> lower,
                                   std::vector<double> upper)
    : config_(config), lower_(std::move(lower)), upper_(std::move(upper))
{
    util::require(!lower_.empty(), "GeneticAlgorithm: empty genome bounds");
    util::require(lower_.size() == upper_.size(),
                  "GeneticAlgorithm: bound size mismatch");
    for (std::size_t i = 0; i < lower_.size(); ++i)
        util::require(lower_[i] < upper_[i],
                      "GeneticAlgorithm: lower bound must be < upper "
                      "bound");
    util::require(config_.populationSize > kEliteCount,
                  "GeneticAlgorithm: populationSize must exceed the 2 "
                  "elites");
    util::require(config_.generations >= 1,
                  "GeneticAlgorithm: generations must be >= 1");
}

std::vector<double>
GeneticAlgorithm::randomGenome(util::Rng &rng) const
{
    std::vector<double> g(lower_.size());
    for (std::size_t i = 0; i < g.size(); ++i)
        g[i] = rng.uniform(lower_[i], upper_[i]);
    return g;
}

void
GeneticAlgorithm::clip(std::vector<double> &genome) const
{
    for (std::size_t i = 0; i < genome.size(); ++i)
        genome[i] = std::clamp(genome[i], lower_[i], upper_[i]);
}

GaResult
GeneticAlgorithm::optimize(const BatchFitnessFn &fitness,
                           util::Rng &rng) const
{
    util::require(static_cast<bool>(fitness),
                  "GeneticAlgorithm::optimize: fitness must be callable");

    const std::size_t n = config_.populationSize;
    std::vector<std::vector<double>> population(n);
    for (auto &g : population)
        g = randomGenome(rng);

    GaResult result;
    result.bestFitness = -std::numeric_limits<double>::infinity();
    std::vector<double> scores(n);
    // known[i]: scores[i] was carried forward from the previous
    // generation. The fitness is pure, so a carried score has the bits
    // an evaluation would give.
    std::vector<char> known(n, 0);

    // Scores the unknown genomes as one batch, then updates the best
    // genome in population order.
    std::vector<const std::vector<double> *> batch;
    std::vector<std::size_t> batch_index;
    std::vector<double> batch_scores;
    auto score_population = [&](obs::TraceSpan &span) {
        batch.clear();
        batch_index.clear();
        for (std::size_t i = 0; i < n; ++i) {
            if (known[i] != 0)
                continue;
            batch.push_back(&population[i]);
            batch_index.push_back(i);
        }
        batch_scores.resize(batch.size());
        span.arg("evaluated", static_cast<std::uint64_t>(batch.size()));
        span.arg("carried", static_cast<std::uint64_t>(n - batch.size()));
        if (!batch.empty())
            fitness(batch, batch_scores.data(), span);
        for (std::size_t b = 0; b < batch.size(); ++b)
            scores[batch_index[b]] = batch_scores[b];
        result.evaluations += batch.size();
        result.carried += n - batch.size();
        for (std::size_t i = 0; i < n; ++i) {
            if (scores[i] > result.bestFitness) {
                result.bestFitness = scores[i];
                result.bestGenome = population[i];
            }
        }
    };

    auto tournament = [&]() -> std::size_t {
        std::size_t winner = rng.index(n);
        for (std::size_t t = 1; t < kTournamentSize; ++t) {
            const std::size_t challenger = rng.index(n);
            if (scores[challenger] > scores[winner])
                winner = challenger;
        }
        return winner;
    };

    {
        obs::TraceSpan span("ga_initial_population", "ml");
        score_population(span);
    }
    result.history.reserve(config_.generations);

    std::vector<std::vector<double>> next;
    std::vector<double> next_scores;
    std::vector<char> next_known;
    for (std::size_t gen = 0; gen < config_.generations; ++gen) {
        obs::TraceSpan gen_span("ga_generation", "ml");
        gen_span.arg("generation", static_cast<std::uint64_t>(gen));
        next.clear();
        next_scores.clear();
        next_known.clear();

        // Elitism: carry over the best individuals, and their scores,
        // unchanged.
        std::vector<std::size_t> order(n);
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::partial_sort(order.begin(),
                          order.begin() +
                              static_cast<std::ptrdiff_t>(kEliteCount),
                          order.end(), [&](std::size_t a, std::size_t b) {
                              return scores[a] > scores[b];
                          });
        for (std::size_t e = 0; e < kEliteCount; ++e) {
            next.push_back(population[order[e]]);
            next_scores.push_back(scores[order[e]]);
            next_known.push_back(1);
        }

        while (next.size() < n) {
            const std::size_t parent_a = tournament();
            const std::size_t parent_b = tournament();
            std::vector<double> child_a = population[parent_a];
            std::vector<double> child_b = population[parent_b];

            if (rng.bernoulli(kCrossoverRate)) {
                // BLX-alpha: sample each gene uniformly from the
                // interval spanned by the parents, extended by alpha.
                for (std::size_t i = 0; i < child_a.size(); ++i) {
                    const double lo = std::min(child_a[i], child_b[i]);
                    const double hi = std::max(child_a[i], child_b[i]);
                    const double span = hi - lo;
                    const double a = lo - kBlendAlpha * span;
                    const double b = hi + kBlendAlpha * span;
                    if (a < b) {
                        child_a[i] = rng.uniform(a, b);
                        child_b[i] = rng.uniform(a, b);
                    }
                }
            }

            for (auto [child, parent] :
                 {std::pair{&child_a, parent_a},
                  std::pair{&child_b, parent_b}}) {
                for (std::size_t i = 0; i < child->size(); ++i) {
                    if (rng.bernoulli(kMutationRate)) {
                        const double range = upper_[i] - lower_[i];
                        (*child)[i] +=
                            rng.gaussian(0.0, kMutationSigma * range);
                    }
                }
                clip(*child);
                if (next.size() < n) {
                    // A child bitwise equal to the parent it was
                    // copied from keeps that parent's score.
                    const bool unchanged =
                        std::memcmp(child->data(),
                                    population[parent].data(),
                                    child->size() * sizeof(double)) == 0;
                    next.push_back(std::move(*child));
                    next_scores.push_back(unchanged ? scores[parent]
                                                    : 0.0);
                    next_known.push_back(unchanged ? 1 : 0);
                }
            }
        }

        population.swap(next);
        scores.swap(next_scores);
        known.swap(next_known);
        score_population(gen_span);
        result.history.push_back(result.bestFitness);
    }

    util::require(!result.bestGenome.empty(),
                  "GeneticAlgorithm::optimize: no fitness compared "
                  "greater than -infinity (all NaN or -inf)");
    const GaMetrics &metrics = gaMetrics();
    metrics.generations.inc(config_.generations);
    metrics.evaluations.inc(
        static_cast<std::uint64_t>(result.evaluations));
    metrics.carried.inc(static_cast<std::uint64_t>(result.carried));
    return result;
}

} // namespace dtrank::ml
