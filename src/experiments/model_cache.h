/**
 * @file
 * Cross-protocol trained-model cache.
 *
 * The experiment protocols (family CV, future prediction, subset
 * robustness, selection sweep) repeatedly train models on overlapping
 * data: the same GA-kNN split model, the same per-(split, benchmark)
 * transposition fit. Training dominates run time, so the harness can
 * route every trained artifact through a process-wide cache keyed by a
 * content hash of everything that determines the artifact bit-for-bit
 * (method, hyperparameters, training matrix bytes, derived seed).
 *
 * Because a value is a pure function of its key, serving it from the
 * cache — or evicting and recomputing it — can never change results:
 * cache on/off is bit-identical at any thread count. The cache is
 * sharded (one mutex per shard) so the parallel task loop does not
 * serialize on it.
 */

#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "baseline/ga_knn.h"
#include "linalg/matrix.h"
#include "obs/metrics.h"
#include "util/hash.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace dtrank::experiments
{

/**
 * Sharded, thread-safe map from content-hash keys to flat double
 * vectors (model weights, predictions).
 * Entries are evicted FIFO per shard once the capacity bound is hit.
 */
class TrainedModelCache
{
  public:
    /** Hit/miss/eviction accounting (monotone except entries). */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        /** Entries currently resident. */
        std::uint64_t entries = 0;
    };

    /** Default total entry bound; plenty for every shipped protocol. */
    static constexpr std::size_t kDefaultCapacity = 1 << 16;

    /**
     * @param capacity Maximum resident entries across all shards.
     * @param registry When non-null, the per-shard hit/miss/eviction
     *     counters are registered there as
     *     `dtrank_model_cache_*_total{shard="i"}` so a `--metrics-out`
     *     scrape shows shard heat; only one cache per process should
     *     share a registry (the names collide otherwise). When null
     *     (tests, ad-hoc caches) the counters are private members and
     *     stats() still works — either way the accounting goes through
     *     obs::Counter's sharded atomics, so a stats() read concurrent
     *     with the parallel task loop is race-free under TSan.
     */
    explicit TrainedModelCache(std::size_t capacity = kDefaultCapacity,
                               obs::MetricsRegistry *registry = nullptr);

    TrainedModelCache(const TrainedModelCache &) = delete;
    TrainedModelCache &operator=(const TrainedModelCache &) = delete;

    /**
     * Fetches the value stored under `key` into `value`.
     * @return true on a hit. Counted in stats().
     */
    bool lookup(const util::HashKey &key, std::vector<double> &value);

    /** Stores (or overwrites) the value under `key`, evicting FIFO. */
    void store(const util::HashKey &key, std::vector<double> value);

    Stats stats() const;

    /** Drops all entries; the hit/miss/eviction counters survive. */
    void clear();

    std::size_t capacity() const { return shard_capacity_ * kShards; }

  private:
    static constexpr std::size_t kShards = 16;

    struct Shard
    {
        /** mutable so stats() const can take a reader-style snapshot. */
        mutable util::Mutex mutex;
        std::unordered_map<util::HashKey, std::vector<double>,
                           util::HashKeyHasher>
            map DTRANK_GUARDED_BY(mutex);
        std::deque<util::HashKey> fifo DTRANK_GUARDED_BY(mutex);

        /** Backing storage when no registry was supplied. */
        obs::Counter own_hits;
        obs::Counter own_misses;
        obs::Counter own_evictions;

        /** Registry-owned or the own_* members above; never null. */
        obs::Counter *hits = nullptr;
        obs::Counter *misses = nullptr;
        obs::Counter *evictions = nullptr;
    };

    Shard &shardFor(const util::HashKey &key);

    std::size_t shard_capacity_;
    std::array<Shard, kShards> shards_;
};

/** Adds a matrix's shape and raw bytes to a content hash. */
void hashMatrix(util::ContentHasher &hasher, const linalg::Matrix &m);

/**
 * Cache key of a trained GA-kNN split model: hyperparameters (GA
 * schedule included), GA seed, and the bytes of both training inputs.
 */
util::HashKey gaKnnModelKey(const baseline::GaKnnConfig &config,
                            const linalg::Matrix &characteristics,
                            const linalg::Matrix &train_scores);

} // namespace dtrank::experiments

