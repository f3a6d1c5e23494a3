/**
 * @file
 * Deterministic random number generation for reproducible experiments.
 *
 * All stochastic components in dtrank (synthetic data generation, MLP
 * weight initialization, GA operators, random subset selection) draw from
 * an explicitly seeded Rng so that every experiment in the paper
 * reproduction is bit-for-bit repeatable.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "util/error.h"

namespace dtrank::util
{

/**
 * Seeded pseudo-random number generator with the helpers dtrank needs.
 *
 * Thin wrapper around std::mt19937_64. Not thread safe; use one Rng per
 * thread (or per logical experiment stream).
 */
class Rng
{
  public:
    /** Constructs a generator from an explicit 64-bit seed. */
    explicit Rng(std::uint64_t seed = 0x5eed5eedULL) : engine_(seed) {}

    /** Reseeds the generator, restarting its stream. */
    void seed(std::uint64_t s) { engine_.seed(s); }

    /** Uniform real in [lo, hi). Requires lo < hi. */
    double
    uniform(double lo = 0.0, double hi = 1.0)
    {
        require(lo < hi, "Rng::uniform: lo must be < hi");
        return std::uniform_real_distribution<double>(lo, hi)(engine_);
    }

    /** Uniform index in [0, n). Requires n > 0. */
    std::size_t
    index(std::size_t n)
    {
        require(n > 0, "Rng::index: n must be > 0");
        return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
    }

    /** Normally distributed real with the given mean and stddev. */
    double
    gaussian(double mean = 0.0, double stddev = 1.0)
    {
        require(stddev >= 0.0, "Rng::gaussian: stddev must be >= 0");
        if (stddev == 0.0)
            return mean;
        return std::normal_distribution<double>(mean, stddev)(engine_);
    }

    /** Bernoulli draw with success probability p in [0, 1]. */
    bool
    bernoulli(double p)
    {
        require(p >= 0.0 && p <= 1.0, "Rng::bernoulli: p outside [0, 1]");
        return std::bernoulli_distribution(p)(engine_);
    }

    /** Fisher-Yates shuffle of an arbitrary vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        std::shuffle(v.begin(), v.end(), engine_);
    }

    /**
     * Samples `k` distinct indices from [0, n) without replacement.
     *
     * @param n Population size.
     * @param k Sample size; must satisfy k <= n.
     * @return The chosen indices in random order.
     */
    std::vector<std::size_t>
    sampleWithoutReplacement(std::size_t n, std::size_t k)
    {
        require(k <= n, "Rng::sampleWithoutReplacement: k must be <= n");
        std::vector<std::size_t> pool(n);
        for (std::size_t i = 0; i < n; ++i)
            pool[i] = i;
        // Partial Fisher-Yates: only the first k positions are needed.
        for (std::size_t i = 0; i < k; ++i) {
            std::size_t j = i + index(n - i);
            std::swap(pool[i], pool[j]);
        }
        pool.resize(k);
        return pool;
    }

    /** Access to the raw engine for std distributions not wrapped here. */
    std::mt19937_64 &engine() { return engine_; }

  private:
    std::mt19937_64 engine_;
};

} // namespace dtrank::util

