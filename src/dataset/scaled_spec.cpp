#include "dataset/scaled_spec.h"

#include <cmath>
#include <string>

#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dtrank::dataset
{

namespace
{

// Stream tags separating the per-entity Rng families. Changing any tag
// changes every generated dataset, so these are frozen.
constexpr std::uint64_t kStreamNicknameBins = 1;
constexpr std::uint64_t kStreamMachine = 2;
constexpr std::uint64_t kStreamDrift = 3;
constexpr std::uint64_t kStreamBenchProfile = 4;
constexpr std::uint64_t kStreamNickProfile = 5;

/** splitmix64 finalizer. */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

std::uint64_t
scaledStreamSeed(std::uint64_t seed, std::uint64_t stream,
                 std::uint64_t index)
{
    return mix64(mix64(seed ^ (stream * 0x9e3779b97f4a7c15ULL)) ^ index);
}

std::vector<NicknameProfile>
makeScaledNicknameProfiles(std::size_t count, std::uint64_t seed,
                           double capabilityJitter)
{
    const auto &catalog = nicknameCatalog();
    std::vector<NicknameProfile> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t g = i / catalog.size();
        NicknameProfile p = catalog[i % catalog.size()];
        if (g > 0) {
            const std::string suffix = std::to_string(g);
            p.family += " (g" + suffix + ")";
            p.nickname += "-g" + suffix;
            util::Rng rng(
                scaledStreamSeed(seed, kStreamNickProfile, i));
            for (std::size_t d = 0; d < kCapabilityDims; ++d)
                p.capability[d] += rng.gaussian(0.0, capabilityJitter);
        }
        out.push_back(std::move(p));
    }
    return out;
}

std::vector<BenchmarkProfile>
makeScaledBenchmarkProfiles(std::size_t count, std::uint64_t seed,
                            double demandJitterSigma,
                            double offsetJitterSigma)
{
    const auto &catalog = benchmarkCatalog();
    constexpr auto kMembw =
        static_cast<std::size_t>(CapabilityDim::MemBandwidth);
    std::vector<BenchmarkProfile> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t g = i / catalog.size();
        BenchmarkProfile b = catalog[i % catalog.size()];
        if (g > 0) {
            b.info.name += "_v" + std::to_string(g);
            util::Rng rng(
                scaledStreamSeed(seed, kStreamBenchProfile, i));
            // Jitter every demand weight except bandwidth, then
            // renormalize the jittered weights to the bandwidth
            // complement: total demand stays 1 and the bandwidth
            // demand — the axis every outlier threshold cuts on — is
            // copied bit-exactly from the base benchmark.
            const double membw = b.demand[kMembw];
            double rest = 0.0;
            for (std::size_t d = 0; d < kCapabilityDims; ++d) {
                if (d == kMembw)
                    continue;
                b.demand[d] = std::max(
                    0.005,
                    b.demand[d] + rng.gaussian(0.0, demandJitterSigma));
                rest += b.demand[d];
            }
            if (rest > 0.0) {
                const double target = 1.0 - membw;
                for (std::size_t d = 0; d < kCapabilityDims; ++d)
                    if (d != kMembw)
                        b.demand[d] *= target / rest;
            }
            b.offset += rng.gaussian(0.0, offsetJitterSigma);
        }
        out.push_back(std::move(b));
    }
    return out;
}

ScaledSpecGenerator::ScaledSpecGenerator(ScaledSpecConfig config)
    : config_(config)
{
    util::require(config_.machines >= 1,
                  "ScaledSpecGenerator: machines must be >= 1");
    util::require(config_.benchmarks >= 3,
                  "ScaledSpecGenerator: benchmarks must be >= 3");
    util::require(config_.base.machinesPerNickname >= 1,
                  "ScaledSpecGenerator: machinesPerNickname must be >= 1");
    util::require(config_.nicknameCapabilityJitter >= 0.0 &&
                      config_.demandJitterSigma >= 0.0 &&
                      config_.offsetJitterSigma >= 0.0,
                  "ScaledSpecGenerator: jitter sigmas must be >= 0");
}

std::vector<BenchmarkProfile>
ScaledSpecGenerator::benchmarkProfiles() const
{
    return makeScaledBenchmarkProfiles(config_.benchmarks, config_.seed,
                                       config_.demandJitterSigma,
                                       config_.offsetJitterSigma);
}

PerfDatabase
ScaledSpecGenerator::generate() const
{
    const SyntheticSpecConfig &base = config_.base;
    const auto n_machines = config_.machines;
    const auto n_bench = config_.benchmarks;
    const auto per_nick =
        static_cast<std::size_t>(base.machinesPerNickname);
    const std::size_t n_nick = (n_machines + per_nick - 1) / per_nick;

    const std::vector<NicknameProfile> nicknames =
        makeScaledNicknameProfiles(n_nick, config_.seed,
                                   config_.nicknameCapabilityJitter);
    const std::vector<BenchmarkProfile> benchmarks = benchmarkProfiles();

    std::vector<BenchmarkInfo> bench_infos;
    bench_infos.reserve(n_bench);
    for (const BenchmarkProfile &b : benchmarks)
        bench_infos.push_back(b.info);

    std::vector<double> drift(n_bench);
    for (std::size_t b = 0; b < n_bench; ++b) {
        util::Rng rng(scaledStreamSeed(config_.seed, kStreamDrift, b));
        drift[b] = rng.gaussian(0.0, base.temporalDriftSigma);
    }

    std::vector<MachineInfo> machines(n_machines);
    for (std::size_t mi = 0; mi < n_machines; ++mi) {
        const NicknameProfile &nick = nicknames[mi / per_nick];
        MachineInfo &m = machines[mi];
        m.vendor = nick.vendor;
        m.family = nick.family;
        m.nickname = nick.nickname;
        m.isa = nick.isa;
        m.releaseYear = nick.releaseYear;
        m.variant = static_cast<int>(mi % per_nick);
    }

    // Scores are generated machine-major (each machine's benchmark
    // sweep is one contiguous row fed by that machine's own Rng
    // stream), parallelized over nicknames. Rows are disjoint and the
    // streams never cross entities, so thread count cannot change a
    // bit of the output.
    linalg::Matrix machine_major(n_machines, n_bench);
    constexpr auto kMembw =
        static_cast<std::size_t>(CapabilityDim::MemBandwidth);
    util::parallelFor(config_.threads, n_nick, [&](std::size_t n) {
        const NicknameProfile &nick = nicknames[n];

        // Per-nickname variant bins, same correlation scheme as the
        // paper-scale generator (synthetic_spec.cpp).
        util::Rng nick_rng(
            scaledStreamSeed(config_.seed, kStreamNicknameBins, n));
        std::vector<double> ordered(per_nick, 0.0);
        for (std::size_t v = 0; v < per_nick; ++v) {
            ordered[v] =
                per_nick > 1
                    ? 2.0 * (static_cast<double>(v) /
                                 static_cast<double>(per_nick - 1) -
                             0.5)
                    : 0.0;
        }
        std::vector<double> mem_mix = ordered;
        std::vector<double> cache_mix = ordered;
        nick_rng.shuffle(mem_mix);
        nick_rng.shuffle(cache_mix);
        constexpr double kConfigCorrelation = 0.35;

        for (std::size_t v = 0; v < per_nick; ++v) {
            const std::size_t mi = n * per_nick + v;
            if (mi >= n_machines)
                break;
            util::Rng m_rng(
                scaledStreamSeed(config_.seed, kStreamMachine, mi));

            const double clock_bin =
                per_nick > 1
                    ? (static_cast<double>(v) /
                           static_cast<double>(per_nick - 1) -
                       0.5) *
                          2.0 * base.variantSpread
                    : 0.0;
            const double mem_bin =
                base.variantMemSpread *
                (kConfigCorrelation * ordered[v] +
                 (1.0 - kConfigCorrelation) * mem_mix[v]);
            const double cache_bin =
                base.variantCacheSpread *
                (kConfigCorrelation * ordered[v] +
                 (1.0 - kConfigCorrelation) * cache_mix[v]);

            CapabilityVector cap = nick.capability;
            for (std::size_t d = 0; d < kCapabilityDims; ++d) {
                const auto dim = static_cast<CapabilityDim>(d);
                if (dim == CapabilityDim::MemBandwidth)
                    cap[d] += mem_bin;
                else if (dim == CapabilityDim::Cache)
                    cap[d] += cache_bin;
                else
                    cap[d] += clock_bin;
                cap[d] +=
                    m_rng.gaussian(0.0, base.variantCapabilityJitter);
            }
            const double fp_bias =
                m_rng.gaussian(0.0, base.fpDomainBiasSigma);

            const int age =
                base.driftReferenceYear - nick.releaseYear;
            double *row = machine_major.rowData(mi);
            for (std::size_t b = 0; b < n_bench; ++b) {
                const BenchmarkProfile &bench = benchmarks[b];
                double log_score = bench.offset;
                for (std::size_t d = 0; d < kCapabilityDims; ++d)
                    log_score += bench.demand[d] * cap[d];
                if (bench.info.domain == BenchmarkDomain::FloatingPoint)
                    log_score += fp_bias;
                if (nick.streamingPlatformBoost &&
                    bench.demand[kMembw] >= base.streamingBoostThreshold)
                    log_score += base.streamingBoost;
                if (age > 0)
                    log_score += drift[b] * static_cast<double>(age);
                log_score +=
                    m_rng.gaussian(0.0, base.measurementNoiseSigma);
                row[b] = std::exp2(log_score);
            }
        }
    });

    return PerfDatabase(std::move(bench_infos), std::move(machines),
                        machine_major.transposed());
}

} // namespace dtrank::dataset
