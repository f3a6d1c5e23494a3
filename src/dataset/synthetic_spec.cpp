#include "dataset/synthetic_spec.h"

#include <cmath>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace dtrank::dataset
{

SyntheticSpecGenerator::SyntheticSpecGenerator(SyntheticSpecConfig config)
    : config_(config)
{
    util::require(config_.measurementNoiseSigma >= 0.0,
                  "SyntheticSpecGenerator: noise sigma must be >= 0");
}

PerfDatabase
SyntheticSpecGenerator::generate() const
{
    const auto &nicknames = nicknameCatalog();
    const auto &benchmarks = benchmarkCatalog();
    util::Rng rng(config_.seed);

    // Materialize machine metadata and per-machine capability vectors.
    std::vector<MachineInfo> machines;
    std::vector<CapabilityVector> capabilities;
    std::vector<double> fp_bias;
    std::vector<bool> streaming_boosted;
    for (const NicknameProfile &nick : nicknames) {
        // Memory and cache configurations correlate with the clock bin
        // (vendors pair faster CPUs with better platforms) but carry an
        // independent component, so machines of one nickname rank
        // somewhat differently for memory-bound than for compute-bound
        // workloads without ever fully inverting.
        constexpr auto n_var =
            static_cast<std::size_t>(kMachinesPerNickname);
        std::vector<double> ordered(n_var, 0.0);
        for (std::size_t v = 0; v < n_var; ++v) {
            ordered[v] = 2.0 * (static_cast<double>(v) /
                                    static_cast<double>(n_var - 1) -
                                0.5);
        }
        std::vector<double> mem_mix = ordered;
        std::vector<double> cache_mix = ordered;
        rng.shuffle(mem_mix);
        rng.shuffle(cache_mix);
        std::vector<double> mem_bins(n_var);
        std::vector<double> cache_bins(n_var);
        for (std::size_t i = 0; i < n_var; ++i) {
            mem_bins[i] = kVariantMemSpread *
                          (kConfigCorrelation * ordered[i] +
                           (1.0 - kConfigCorrelation) * mem_mix[i]);
            cache_bins[i] = kVariantCacheSpread *
                            (kConfigCorrelation * ordered[i] +
                             (1.0 - kConfigCorrelation) * cache_mix[i]);
        }

        for (int v = 0; v < kMachinesPerNickname; ++v) {
            MachineInfo m;
            m.vendor = nick.vendor;
            m.family = nick.family;
            m.nickname = nick.nickname;
            m.isa = nick.isa;
            m.releaseYear = nick.releaseYear;
            m.variant = v;
            machines.push_back(std::move(m));

            // Variant = one configuration of the same silicon: a clock
            // bin shifting the core-clock-domain capabilities, an
            // independent memory configuration, an independent cache
            // configuration, and small per-dimension jitter.
            CapabilityVector cap = nick.capability;
            const double clock_bin =
                (static_cast<double>(v) / (kMachinesPerNickname - 1) -
                 0.5) *
                2.0 * kVariantSpread;
            const double mem_bin = mem_bins[static_cast<std::size_t>(v)];
            const double cache_bin =
                cache_bins[static_cast<std::size_t>(v)];
            for (std::size_t d = 0; d < kCapabilityDims; ++d) {
                const auto dim = static_cast<CapabilityDim>(d);
                if (dim == CapabilityDim::MemBandwidth)
                    cap[d] += mem_bin;
                else if (dim == CapabilityDim::Cache)
                    cap[d] += cache_bin;
                else
                    cap[d] += clock_bin;
                cap[d] += rng.gaussian(0.0, kVariantCapabilityJitter);
            }
            capabilities.push_back(cap);
            streaming_boosted.push_back(nick.streamingPlatformBoost);
            fp_bias.push_back(rng.gaussian(0.0, kFpDomainBiasSigma));
        }
    }

    // Benchmark metadata rows.
    std::vector<BenchmarkInfo> bench_infos;
    bench_infos.reserve(benchmarks.size());
    for (const BenchmarkProfile &b : benchmarks)
        bench_infos.push_back(b.info);

    // Per-benchmark temporal drift directions (see
    // kTemporalDriftSigma).
    std::vector<double> drift(benchmarks.size());
    for (double &d : drift)
        d = rng.gaussian(0.0, kTemporalDriftSigma);

    // Score matrix: 2^(offset + demand . capability + noise). Each
    // log score sums its terms in one fixed order: demand dimensions
    // ascending, then FP bias, boost, drift and noise.
    linalg::Matrix scores(benchmarks.size(), machines.size());
    for (std::size_t bi = 0; bi < benchmarks.size(); ++bi) {
        const BenchmarkProfile &b = benchmarks[bi];
        for (std::size_t mi = 0; mi < machines.size(); ++mi) {
            double log_score = b.offset;
            for (std::size_t d = 0; d < kCapabilityDims; ++d) {
                // dtrank-analyze-ignore(no-fp-accumulate)
                log_score += b.demand[d] * capabilities[mi][d];
            }
            if (b.info.domain == BenchmarkDomain::FloatingPoint) {
                // dtrank-analyze-ignore(no-fp-accumulate)
                log_score += fp_bias[mi];
            }
            const double membw_demand = b.demand[static_cast<std::size_t>(
                CapabilityDim::MemBandwidth)];
            if (streaming_boosted[mi] &&
                membw_demand >= kStreamingBoostThreshold) {
                // dtrank-analyze-ignore(no-fp-accumulate)
                log_score += config_.streamingBoost;
            }
            const int age = kDriftReferenceYear - machines[mi].releaseYear;
            if (age > 0) {
                // dtrank-analyze-ignore(no-fp-accumulate)
                log_score += drift[bi] * static_cast<double>(age);
            }
            // dtrank-analyze-ignore(no-fp-accumulate)
            log_score += rng.gaussian(0.0, config_.measurementNoiseSigma);
            scores(bi, mi) = std::exp2(log_score);
        }
    }

    return PerfDatabase(std::move(bench_infos), std::move(machines),
                        std::move(scores));
}

PerfDatabase
makePaperDataset(std::uint64_t seed)
{
    SyntheticSpecConfig config;
    config.seed = seed;
    return SyntheticSpecGenerator(config).generate();
}

} // namespace dtrank::dataset
