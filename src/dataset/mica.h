/**
 * @file
 * Synthetic microarchitecture-independent characteristics (MICA).
 *
 * The GA-kNN baseline of Hoste et al. consumes per-benchmark
 * microarchitecture-independent characteristics (instruction mix, ILP,
 * working-set size, branch predictability, ...). We cannot run the
 * original profiling toolchain, so we construct characteristic vectors
 * with the geometry real MICA data exhibits on SPEC CPU2006:
 *
 *  * Three program-style clusters — integer codes, floating-point
 *    numeric codes, and memory-intensive codes — whose members are
 *    mutual nearest neighbours. Cluster centres are derived from the
 *    latent demand profiles so the characteristics remain meaningful.
 *  * The paper's outlier benchmarks (leslie3d, cactusADM, libquantum;
 *    Section 6.2) sit on a ring around a *compute* cluster: at the
 *    program level they look like compute codes (libquantum is plain
 *    scalar C loops) while their performance is bandwidth bound.
 *    Their nearest neighbours are therefore uninformative compute
 *    benchmarks — and, being outside the cluster body, they never
 *    appear in a mainstream benchmark's own neighbour list. This is
 *    precisely the geometry that gives workload-similarity methods
 *    their documented outlier weakness.
 */

#pragma once

#include <map>
#include <string>
#include <vector>

#include "dataset/latent_model.h"
#include "linalg/matrix.h"

namespace dtrank::dataset
{

/** Program-style cluster a benchmark belongs to in MICA space. */
enum class MicaCluster
{
    IntCompute, ///< Integer, control-flow heavy codes.
    FpNumeric,  ///< Floating-point numeric kernels.
    Memory      ///< Codes with visibly memory-centric behaviour.
};

/**
 * Knobs of the characteristic generator. Its geometry (seed, noise,
 * cluster spread, ring radius) is fixed in mica.cpp, and every
 * characteristic is z-normalized across benchmarks.
 */
struct MicaConfig
{
    /**
     * Place the benchmarks in characteristicDisguises() on the outlier
     * ring of their twin's cluster (default). Disabling this gives
     * every benchmark honest characteristics — an ablation that
     * removes the GA-kNN baseline's outlier weakness.
     */
    bool disguiseOutliers = true;
};

/**
 * The benchmarks that are outliers *in characteristic space* per the
 * paper's discussion of Figures 6 and 7 — leslie3d, cactusADM and
 * libquantum — mapped to the mainstream benchmark whose program-level
 * style they resemble (the twin determines which cluster's ring they
 * sit on).
 */
const std::map<std::string, std::string> &characteristicDisguises();

/**
 * Cluster a benchmark profile belongs to, judged by its own demand
 * profile (memory-bound if its bandwidth demand is >= 0.3) and domain.
 * Disguises are not applied here.
 */
MicaCluster micaClusterOf(const BenchmarkProfile &profile);

/**
 * Generates the benchmark x characteristic matrix for a set of
 * benchmark profiles. Row order follows the input vector.
 */
class MicaGenerator
{
  public:
    explicit MicaGenerator(MicaConfig config = MicaConfig{});

    /** Characteristics for the given profiles. */
    linalg::Matrix
    generate(const std::vector<BenchmarkProfile> &profiles) const;

    /** Characteristics for the full paper benchmark catalog. */
    linalg::Matrix generateForCatalog() const;

  private:
    MicaConfig config_;
};

} // namespace dtrank::dataset

