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
// The generators span a nickname's clock bin from its first variant to
// its last.
static_assert(kMachinesPerNickname >= 2,
              "a nickname needs two variants to span its clock bin");

// The calibration both generators (synthetic_spec.cpp, scaled_spec.cpp)
// draw every machine with, spreads and sigmas in log2 units.

/**
 * Per-(benchmark, machine) measurement noise, log2 stddev: compiler
 * flag, memory configuration and run-to-run differences in published
 * results. The default of SyntheticSpecConfig::measurementNoiseSigma.
 */
constexpr double kMeasurementNoiseSigma = 0.02;
/**
 * Log2 stddev of a per-machine bias on every floating-point benchmark:
 * toolchain and platform effects (vendors submit with different
 * compilers, which shift a machine's integer/floating-point balance).
 */
constexpr double kFpDomainBiasSigma = 0.05;
/**
 * Log2 half-range of the per-variant clock bin: the machines of one
 * nickname are the same silicon at different clock speeds. The bin
 * shifts every core-clock-domain capability (frequency, ILP, FP,
 * integer, branch) together.
 */
constexpr double kVariantSpread = 0.22;
/**
 * Log2 half-range of the per-machine memory configuration (FSB/DRAM
 * speed, channel population). Partly independent of the clock bin, so
 * machines of one nickname rank differently for memory-bound than for
 * compute-bound workloads: the app-specific ranking signal the
 * per-application predictors exploit.
 */
constexpr double kVariantMemSpread = 0.18;
/** Log2 half-range of the per-machine cache configuration. */
constexpr double kVariantCacheSpread = 0.05;
/**
 * Share of the memory and cache bins that follows the clock bin:
 * vendors pair faster CPUs with better platforms, but never so
 * strictly that a nickname's memory ranking fully inverts.
 */
constexpr double kConfigCorrelation = 0.35;
/** Small per-variant, per-dimension capability jitter (log2 stddev). */
constexpr double kVariantCapabilityJitter = 0.06;
/**
 * Extra log2 score on machines whose nickname carries the streaming
 * platform boost, for benchmarks with bandwidth demand >=
 * kStreamingBoostThreshold (NicknameProfile::streamingPlatformBoost).
 * The default of SyntheticSpecConfig::streamingBoost.
 */
constexpr double kStreamingBoost = 0.25;
/** Bandwidth-demand threshold of the streaming boost. */
constexpr double kStreamingBoostThreshold = 0.50;
/**
 * Log2 stddev, per benchmark per year of machine age, of a
 * benchmark-specific temporal drift. Older machines were measured with
 * older compilers and libraries, so a benchmark's relation to the rest
 * of the suite is not quite stationary over time: the effect behind
 * Table 3's degradation with predictive-set age (and GA-kNN's relative
 * advantage far out, since it only consumes target-machine data).
 */
constexpr double kTemporalDriftSigma = 0.04;
/** Release year the drift is measured from (the newest machines). */
constexpr int kDriftReferenceYear = 2009;

} // namespace dtrank::dataset

