#include "experiments/model_cache.h"

#include <algorithm>

#include "util/error.h"

namespace dtrank::experiments
{

TrainedModelCache::TrainedModelCache(std::size_t capacity,
                                     obs::MetricsRegistry *registry)
    : shard_capacity_(std::max<std::size_t>(1, capacity / kShards))
{
    util::require(capacity >= 1,
                  "TrainedModelCache: capacity must be >= 1");
    for (std::size_t i = 0; i < kShards; ++i) {
        Shard &shard = shards_[i];
        if (registry == nullptr) {
            shard.hits = &shard.own_hits;
            shard.misses = &shard.own_misses;
            shard.evictions = &shard.own_evictions;
            continue;
        }
        const std::string label =
            "{shard=\"" + std::to_string(i) + "\"}";
        shard.hits = &registry->counter(
            "dtrank_model_cache_hits_total" + label,
            "Model cache lookups served from a resident entry");
        shard.misses = &registry->counter(
            "dtrank_model_cache_misses_total" + label,
            "Model cache lookups that had to train the artifact");
        shard.evictions = &registry->counter(
            "dtrank_model_cache_evictions_total" + label,
            "Entries dropped by the per-shard FIFO capacity bound");
    }
}

TrainedModelCache::Shard &
TrainedModelCache::shardFor(const util::HashKey &key)
{
    return shards_[key.lo % kShards];
}

bool
TrainedModelCache::lookup(const util::HashKey &key,
                          std::vector<double> &value)
{
    Shard &shard = shardFor(key);
    util::LockGuard lock(shard.mutex);
    const auto it = shard.map.find(key);
    if (it == shard.map.end()) {
        shard.misses->inc();
        return false;
    }
    shard.hits->inc();
    value = it->second;
    return true;
}

void
TrainedModelCache::store(const util::HashKey &key,
                         std::vector<double> value)
{
    Shard &shard = shardFor(key);
    util::LockGuard lock(shard.mutex);
    const auto [it, inserted] =
        shard.map.try_emplace(key, std::move(value));
    if (!inserted) {
        // Concurrent miss on the same key: both workers computed the
        // same pure value; keep the resident one.
        return;
    }
    shard.fifo.push_back(key);
    while (shard.map.size() > shard_capacity_) {
        shard.map.erase(shard.fifo.front());
        shard.fifo.pop_front();
        shard.evictions->inc();
    }
}

TrainedModelCache::Stats
TrainedModelCache::stats() const
{
    Stats s;
    for (const Shard &shard : shards_) {
        s.hits += shard.hits->value();
        s.misses += shard.misses->value();
        s.evictions += shard.evictions->value();
        util::LockGuard lock(shard.mutex);
        s.entries += shard.map.size();
    }
    return s;
}

void
TrainedModelCache::clear()
{
    for (Shard &shard : shards_) {
        util::LockGuard lock(shard.mutex);
        shard.map.clear();
        shard.fifo.clear();
    }
}

void
hashMatrix(util::ContentHasher &hasher, const linalg::Matrix &m)
{
    hasher.add(static_cast<std::uint64_t>(m.rows()));
    hasher.add(static_cast<std::uint64_t>(m.cols()));
    hasher.add(m.data());
}

util::HashKey
gaKnnModelKey(const baseline::GaKnnConfig &config,
              const linalg::Matrix &characteristics,
              const linalg::Matrix &train_scores)
{
    util::ContentHasher hasher;
    hasher.add(std::string_view("gaknn-model"));
    hasher.add(static_cast<std::uint64_t>(config.k));
    hasher.add(static_cast<std::uint64_t>(config.weighting));
    hasher.add(config.seed);
    hasher.add(static_cast<std::uint64_t>(config.ga.populationSize));
    hasher.add(static_cast<std::uint64_t>(config.ga.generations));
    hasher.add(config.ga.crossoverRate);
    hasher.add(config.ga.mutationRate);
    hasher.add(config.ga.mutationSigma);
    hasher.add(static_cast<std::uint64_t>(config.ga.tournamentSize));
    hasher.add(static_cast<std::uint64_t>(config.ga.eliteCount));
    hasher.add(config.ga.blendAlpha);
    hashMatrix(hasher, characteristics);
    hashMatrix(hasher, train_scores);
    return hasher.key();
}

} // namespace dtrank::experiments
