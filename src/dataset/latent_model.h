/**
 * @file
 * The latent capability/demand model behind the synthetic SPEC CPU2006
 * database.
 *
 * The paper's methodology consumes published SPEC scores for 117
 * commercial machines (Table 1). We cannot redistribute that data, so we
 * generate a statistically faithful substitute: each machine type is
 * described by a small vector of log-scale hardware capabilities
 * (frequency/IPC, out-of-order ILP, cache capacity, memory bandwidth, FP
 * throughput, integer throughput, branch handling) and each benchmark by
 * a resource-demand distribution over those dimensions. Log performance
 * is the demand-weighted mixture of capabilities plus noise, which
 * reproduces the structure the method exploits: machines of one family
 * are strongly correlated, cross-family correlations are weaker, and
 * benchmarks whose demand is concentrated on a single resource
 * (libquantum, leslie3d, cactusADM on memory bandwidth; namd and hmmer
 * on cache capacity) are outliers, exactly as discussed in Section 6.2
 * of the paper.
 */

#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "dataset/perf_database.h"

namespace dtrank::dataset
{

/** Latent hardware capability dimensions. */
enum class CapabilityDim : std::size_t
{
    Frequency = 0,  ///< Clock x per-cycle issue efficiency.
    Ilp,            ///< Out-of-order window / superscalar width.
    Cache,          ///< Effective on-chip cache capacity.
    MemBandwidth,   ///< Sustained memory bandwidth (and latency).
    FpThroughput,   ///< Floating-point execution throughput.
    IntThroughput,  ///< Integer execution throughput.
    Branch          ///< Branch prediction / control-flow handling.
};

/** Number of latent capability dimensions. */
constexpr std::size_t kCapabilityDims = 7;

/** Capability vector in log2 units relative to a mid-2000s baseline. */
using CapabilityVector = std::array<double, kCapabilityDims>;

/** Demand distribution over the capability dimensions (sums to 1). */
using DemandVector = std::array<double, kCapabilityDims>;

/** One CPU nickname from Table 1 of the paper, with its latent profile. */
struct NicknameProfile
{
    std::string vendor;
    std::string family;
    std::string nickname;
    std::string isa;
    int releaseYear = 0;
    CapabilityVector capability{};
    /**
     * Server Nehalem platforms (triple-channel memory, serious
     * autoparallelizing compiler submissions) lift streaming codes
     * super-linearly: benchmarks whose bandwidth demand exceeds the
     * generator's threshold get an extra log2 boost on these machines.
     * This is the interaction no linear cross-machine model can see
     * through a non-boosted proxy — the mechanism behind the paper's
     * >100% NN^T and GA-kNN top-1 failures on libquantum/cactusADM.
     */
    bool streamingPlatformBoost = false;
};

/** One SPEC CPU2006 benchmark with its latent demand profile. */
struct BenchmarkProfile
{
    BenchmarkInfo info;
    /** Demand weights over capability dimensions; sums to 1. */
    DemandVector demand{};
    /** Benchmark-specific log2 scale offset of its SPEC ratio. */
    double offset = 0.0;
};

/**
 * The full Table 1 machine catalog: 39 CPU nicknames across 17
 * processor families. Three machines per nickname yields the paper's
 * 117 machines.
 */
const std::vector<NicknameProfile> &nicknameCatalog();

/**
 * The 29 SPEC CPU2006 benchmarks with metadata and latent demand
 * profiles (12 integer + 17 floating-point).
 */
const std::vector<BenchmarkProfile> &benchmarkCatalog();

/** Number of machines per nickname in the paper's dataset. */
constexpr int kMachinesPerNickname = 3;

} // namespace dtrank::dataset

