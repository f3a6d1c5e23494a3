#include "dataset/mica.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <utility>

#include "linalg/vector_ops.h"
#include "ml/normalizer.h"
#include "util/error.h"
#include "util/rng.h"

namespace dtrank::dataset
{

namespace
{

/**
 * One synthetic characteristic: a name plus a fixed linear map from the
 * latent demand space, used to derive meaningful cluster centres.
 */
struct CharacteristicSpec
{
    const char *name;
    // Demand mixing weights: freq, ilp, cache, membw, fp, int, branch.
    std::array<double, kCapabilityDims> mix;
};

const std::array<CharacteristicSpec, 12> kCharacteristics = {{
    {"instr_mix_int", {0.10, 0.00, 0.00, 0.00, -0.20, 1.00, 0.10}},
    {"instr_mix_fp", {0.00, 0.00, 0.00, 0.10, 1.00, -0.20, -0.10}},
    {"instr_mix_mem", {0.00, 0.00, 0.50, 1.00, 0.00, 0.00, 0.00}},
    {"instr_mix_branch", {0.10, 0.00, 0.00, -0.10, -0.20, 0.20, 1.00}},
    {"ilp_window", {0.30, 1.00, 0.00, -0.10, 0.20, 0.10, -0.20}},
    {"working_set_size", {0.00, 0.00, 0.40, 0.90, 0.00, 0.00, 0.00}},
    {"stride_regularity", {0.00, -0.10, -0.20, 0.80, 0.20, 0.00, -0.30}},
    {"branch_predictability",
     {0.00, 0.10, 0.00, 0.20, 0.30, 0.00, -1.00}},
    {"register_traffic", {0.20, 0.30, 0.00, -0.10, 0.50, 0.50, 0.00}},
    {"code_footprint", {0.30, 0.00, 0.20, 0.00, -0.30, 0.20, 0.30}},
    {"dtlb_pressure", {0.00, 0.00, 0.40, 0.60, 0.00, 0.00, 0.10}},
    {"loop_intensity", {-0.10, 0.10, 0.00, 0.30, 0.60, 0.00, -0.40}},
}};

constexpr std::size_t kNumChars = kCharacteristics.size();

/** Seed of every draw of the characteristic generator. */
constexpr std::uint64_t kSeed = 7;
/** Profiling noise added to each characteristic. */
constexpr double kNoiseSigma = 0.03;
/**
 * Within-cluster spread, in units of the minimum distance between
 * cluster centres (which is normalized to 1).
 */
constexpr double kIntraClusterSigma = 0.17;
/**
 * Distance of a disguised outlier from its twin cluster's centre, in
 * the same units. It exceeds 1 so the outlier stays out of mainstream
 * neighbour lists while the twin cluster remains its own nearest
 * neighbourhood.
 */
constexpr double kRingRadius = 1.80;
static_assert(kRingRadius > 1.0,
              "the ring must lie beyond the normalized inter-centre "
              "distance");

/** Maps a demand vector through the characteristic mixing matrix. */
std::vector<double>
mixDemand(const DemandVector &demand)
{
    std::vector<double> out(kNumChars, 0.0);
    for (std::size_t c = 0; c < kNumChars; ++c)
        for (std::size_t d = 0; d < kCapabilityDims; ++d)
            out[c] += kCharacteristics[c].mix[d] * demand[d];
    return out;
}

/** Removes from v its projection onto (non-zero) direction d. */
void
orthogonalize(std::vector<double> &v, const std::vector<double> &d)
{
    const double dd = linalg::dot(d, d);
    if (dd == 0.0)
        return;
    const double coef = linalg::dot(v, d) / dd;
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] -= coef * d[i];
}

} // namespace

const std::map<std::string, std::string> &
characteristicDisguises()
{
    static const std::map<std::string, std::string> disguises = {
        // Bandwidth-bound programs whose source-level structure
        // resembles a compute benchmark.
        {"libquantum", "sjeng"},   // plain scalar C loops
        {"leslie3d", "gamess"},    // dense Fortran floating point
        {"cactusADM", "gobmk"},    // staged kernels, scalar control
    };
    return disguises;
}

MicaCluster
micaClusterOf(const BenchmarkProfile &profile)
{
    const double membw = profile.demand[static_cast<std::size_t>(
        CapabilityDim::MemBandwidth)];
    if (membw >= 0.30)
        return MicaCluster::Memory;
    return profile.info.domain == BenchmarkDomain::Integer
               ? MicaCluster::IntCompute
               : MicaCluster::FpNumeric;
}

MicaGenerator::MicaGenerator(MicaConfig config) : config_(config) {}

linalg::Matrix
MicaGenerator::generate(
    const std::vector<BenchmarkProfile> &profiles) const
{
    util::require(!profiles.empty(), "MicaGenerator: no profiles");
    util::Rng rng(kSeed);
    const auto &disguises = characteristicDisguises();

    // Assign clusters. Disguised outliers are ring members of their
    // twin's cluster; everyone else is a body member of their own.
    struct Assignment
    {
        MicaCluster cluster = MicaCluster::IntCompute;
        bool ring = false;
    };
    std::vector<Assignment> assign(profiles.size());
    for (std::size_t b = 0; b < profiles.size(); ++b) {
        const auto it = disguises.find(profiles[b].info.name);
        if (config_.disguiseOutliers && it != disguises.end()) {
            assign[b].ring = true;
            bool twin_found = false;
            for (const BenchmarkProfile &twin : profiles) {
                if (twin.info.name == it->second) {
                    assign[b].cluster = micaClusterOf(twin);
                    twin_found = true;
                    break;
                }
            }
            // A disguise without its twin present (e.g. a subset of
            // the suite) falls back to honest characteristics.
            if (!twin_found) {
                assign[b].ring = false;
                assign[b].cluster = micaClusterOf(profiles[b]);
            }
        } else {
            assign[b].cluster = micaClusterOf(profiles[b]);
        }
    }

    // Cluster centres: the mixed mean demand of body members.
    const std::array<MicaCluster, 3> kClusters = {
        MicaCluster::IntCompute, MicaCluster::FpNumeric,
        MicaCluster::Memory};
    std::map<MicaCluster, std::vector<double>> centers;
    for (MicaCluster cluster : kClusters) {
        DemandVector mean{};
        std::size_t count = 0;
        for (std::size_t b = 0; b < profiles.size(); ++b) {
            if (assign[b].cluster != cluster || assign[b].ring)
                continue;
            for (std::size_t d = 0; d < kCapabilityDims; ++d)
                mean[d] += profiles[b].demand[d];
            ++count;
        }
        if (count == 0)
            continue;
        for (std::size_t d = 0; d < kCapabilityDims; ++d)
            mean[d] /= static_cast<double>(count);
        centers[cluster] = mixDemand(mean);
    }
    util::require(!centers.empty(), "MicaGenerator: no cluster centres");

    // Normalize the geometry so the minimum inter-centre distance is 1:
    // scale centre offsets from the grand mean.
    std::vector<double> grand(kNumChars, 0.0);
    for (const auto &[cluster, c] : centers)
        linalg::addScaled(grand, c, 1.0 / static_cast<double>(
                                        centers.size()));
    double min_dist = 0.0;
    bool first = true;
    for (auto it1 = centers.begin(); it1 != centers.end(); ++it1) {
        for (auto it2 = std::next(it1); it2 != centers.end(); ++it2) {
            const double d = std::sqrt(
                linalg::squaredDistance(it1->second, it2->second));
            if (first || d < min_dist) {
                min_dist = d;
                first = false;
            }
        }
    }
    if (min_dist > 0.0) {
        for (auto &[cluster, c] : centers) {
            for (std::size_t i = 0; i < kNumChars; ++i)
                c[i] = grand[i] + (c[i] - grand[i]) / min_dist;
        }
    }

    // Directions between centres; ring directions must be orthogonal
    // to these (and to each other) so an outlier drifts away from the
    // whole cluster constellation rather than toward another cluster.
    std::vector<std::vector<double>> forbidden;
    {
        const auto &base = centers.begin()->second;
        for (auto it = std::next(centers.begin()); it != centers.end();
             ++it)
            forbidden.push_back(linalg::subtract(it->second, base));
    }

    linalg::Matrix raw(profiles.size(), kNumChars);
    std::vector<std::pair<MicaCluster, std::vector<double>>> ring_dirs;
    for (std::size_t b = 0; b < profiles.size(); ++b) {
        const auto center_it = centers.find(assign[b].cluster);
        DTRANK_ASSERT(center_it != centers.end());
        std::vector<double> point = center_it->second;

        if (assign[b].ring) {
            // Deterministic idiosyncratic direction, orthogonalized
            // against centre axes and earlier ring directions, then
            // biased away from the Memory cluster so that no
            // reweighting of the space can pull genuinely
            // memory-bound benchmarks into this outlier's
            // neighbourhood.
            std::vector<double> dir(kNumChars);
            for (double &x : dir)
                x = rng.gaussian(0.0, 1.0);
            for (const auto &f : forbidden)
                orthogonalize(dir, f);
            double n = linalg::norm2(dir);
            DTRANK_ASSERT(n > 0.0);
            for (double &x : dir)
                x /= n;
            const auto mem_it = centers.find(MicaCluster::Memory);
            if (mem_it != centers.end() &&
                assign[b].cluster != MicaCluster::Memory) {
                std::vector<double> away = linalg::subtract(
                    center_it->second, mem_it->second);
                const double an = linalg::norm2(away);
                if (an > 0.0)
                    linalg::addScaled(dir, away, 1.0 / an);
            }
            // Restore mutual orthogonality with earlier rings of the
            // same cluster so two outliers sharing a cluster (and the
            // same away-bias) do not become each other's nearest
            // neighbour. Rings on other clusters are already separated
            // by the centre geometry.
            for (const auto &[fc, fd] : ring_dirs)
                if (fc == assign[b].cluster)
                    orthogonalize(dir, fd);
            n = linalg::norm2(dir);
            DTRANK_ASSERT(n > 0.0);
            for (double &x : dir)
                x /= n;
            ring_dirs.emplace_back(assign[b].cluster, dir);
            linalg::addScaled(point, dir, kRingRadius);
            // A little residual spread on top of the ring position.
            for (double &x : point)
                x += rng.gaussian(0.0, 0.3 * kIntraClusterSigma);
        } else {
            for (double &x : point)
                x += rng.gaussian(0.0, kIntraClusterSigma);
        }

        for (std::size_t c = 0; c < kNumChars; ++c)
            raw(b, c) = point[c] + rng.gaussian(0.0, kNoiseSigma);
    }

    if (profiles.size() < 2)
        return raw;

    ml::StandardNormalizer norm;
    norm.fit(raw);
    return norm.transform(raw);
}

linalg::Matrix
MicaGenerator::generateForCatalog() const
{
    return generate(benchmarkCatalog());
}

} // namespace dtrank::dataset
