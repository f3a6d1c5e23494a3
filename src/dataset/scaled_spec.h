/**
 * @file
 * Scaled synthetic SPEC database generator: the latent factor model of
 * synthetic_spec.* extended to arbitrary machine/benchmark counts
 * (10k-100k machines) for scale testing, with the structural properties
 * the methodology depends on preserved at any size.
 *
 * Scaling scheme:
 *
 *  * Machines cycle the 39-nickname Table 1 catalog. Generation g
 *    (g = nickname_index / 39) clones the base nickname with a fresh
 *    per-dimension capability jitter (zero-mean, so the score
 *    distribution's location and spread do not drift with size), a
 *    " (g<g>)" family suffix (family count grows proportionally — the
 *    family cross-validation structure survives), and the streaming
 *    platform boost inherited, so the boosted-machine fraction is
 *    scale-invariant.
 *  * Benchmarks cycle the 29-benchmark catalog. Derived benchmarks
 *    jitter the demand weights of every dimension EXCEPT memory
 *    bandwidth, which is copied exactly: both the streaming-boost
 *    threshold (0.50) and the MICA memory-cluster threshold (0.30) cut
 *    on bandwidth demand, so the outlier fraction is exactly preserved
 *    at any benchmark count.
 *  * Every random draw comes from a per-entity util::Rng seeded by a
 *    splitmix64 mix of (seed, stream tag, entity index). Generation is
 *    parallelized over nicknames, and because no Rng stream crosses an
 *    entity boundary the output is bit-identical at any thread count.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dataset/latent_model.h"
#include "dataset/perf_database.h"

namespace dtrank::dataset
{

/**
 * Knobs of the scaled database generator. Its calibration is the
 * paper-scale generator's defaults (the constants in latent_model.h)
 * plus the fixed jitters of derived nicknames and benchmarks.
 */
struct ScaledSpecConfig
{
    /** Total machines to generate (any count >= 1). */
    std::size_t machines = 117;
    /** Total benchmarks to generate (>= 3). */
    std::size_t benchmarks = 29;
    /** Seed controlling every random draw. */
    std::uint64_t seed = 2011;
    /**
     * Worker threads for generation (1 = serial, 0 = hardware
     * concurrency). Output is bit-identical for every value.
     */
    std::size_t threads = 0;
};

/**
 * Deterministic per-entity seed: mixes (seed, stream, index) through
 * splitmix64 so each nickname/machine/benchmark owns an independent
 * Rng stream regardless of how generation work is scheduled.
 */
std::uint64_t scaledStreamSeed(std::uint64_t seed, std::uint64_t stream,
                               std::uint64_t index);

/**
 * `count` nickname profiles cycling the base catalog. Entries [0, 39)
 * are the catalog verbatim; later generations carry the jittered
 * capabilities and suffixed family/nickname names described above.
 */
std::vector<NicknameProfile>
makeScaledNicknameProfiles(std::size_t count, std::uint64_t seed);

/**
 * `count` benchmark profiles cycling the base catalog (generation 0
 * verbatim; derived benchmarks renamed "<name>_v<g>" with jittered
 * demand/offset, bandwidth demand preserved exactly). Feed these to
 * MicaGenerator::generate() to build matching characteristics — note
 * the characteristic disguises are keyed by exact benchmark name, so
 * derived outliers get honest characteristics.
 */
std::vector<BenchmarkProfile>
makeScaledBenchmarkProfiles(std::size_t count, std::uint64_t seed);

/** Scaled database builder; see the file comment for the scheme. */
class ScaledSpecGenerator
{
  public:
    explicit ScaledSpecGenerator(ScaledSpecConfig config);

    /** Builds the machines x benchmarks database. */
    PerfDatabase generate() const;

    /** The benchmark profiles generate() uses, for characteristics. */
    std::vector<BenchmarkProfile> benchmarkProfiles() const;

  private:
    ScaledSpecConfig config_;
};

} // namespace dtrank::dataset
