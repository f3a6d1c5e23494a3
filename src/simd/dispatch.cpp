/**
 * @file
 * Tier selection for the SIMD kernel layer. Resolution happens once,
 * on the first kernels() call:
 *
 *   1. DTRANK_SIMD=scalar|avx2|avx512 in the environment wins (an
 *      unavailable request logs a warning and falls back to the best
 *      remaining tier);
 *   2. otherwise the widest tier both the CPU (cpuid) and the binary
 *      (compile flags) support: avx512 > avx2 > scalar.
 *
 * --simd on the CLI binaries routes through requestTier() after flag
 * parsing, overriding whatever the environment resolved.
 */

#include "simd/simd.h"

#include <atomic>
#include <cstdlib>

#include "util/error.h"
#include "util/logging.h"

namespace dtrank::simd
{

namespace
{

const KernelTable *
tableFor(Tier tier)
{
    if (tier == Tier::Avx512)
        return avx512Kernels();
    if (tier == Tier::Avx2)
        return avx2Kernels();
    return &scalarKernels();
}

/**
 * The active-table slot. A relaxed atomic: the pointer is written
 * before worker threads start (lazy init or startup override) and the
 * tables themselves are immutable statics, so readers only need the
 * pointer value, not ordering.
 */
std::atomic<const KernelTable *> &
activeSlot()
{
    static std::atomic<const KernelTable *> slot{nullptr};
    return slot;
}

const KernelTable *
resolveFromEnvironment()
{
    const char *env = std::getenv("DTRANK_SIMD");
    return tableFor(resolveTier(env, cpuSupportsAvx2(),
                                avx2Kernels() != nullptr,
                                cpuSupportsAvx512(),
                                avx512Kernels() != nullptr,
                                cpuSupportsFma()));
}

} // namespace

bool
cpuSupportsAvx2()
{
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

bool
cpuSupportsFma()
{
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
    return __builtin_cpu_supports("fma") != 0;
#else
    return false;
#endif
}

bool
cpuSupportsAvx512()
{
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
    return __builtin_cpu_supports("avx512f") != 0;
#else
    return false;
#endif
}

std::string
cpuFeatureString()
{
    std::string features;
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
    // __builtin_cpu_supports only accepts string literals, so the
    // probe list is spelled out instead of looped over.
    const auto append = [&features](bool supported, const char *name) {
        if (!supported)
            return;
        if (!features.empty())
            features += ',';
        features += name;
    };
    append(__builtin_cpu_supports("sse2") != 0, "sse2");
    append(__builtin_cpu_supports("sse4.2") != 0, "sse4.2");
    append(__builtin_cpu_supports("avx") != 0, "avx");
    append(__builtin_cpu_supports("avx2") != 0, "avx2");
    append(__builtin_cpu_supports("fma") != 0, "fma");
    append(__builtin_cpu_supports("avx512f") != 0, "avx512f");
#endif
    return features.empty() ? "none" : features;
}

const char *
tierName(Tier tier)
{
    if (tier == Tier::Avx512)
        return "avx512";
    return tier == Tier::Avx2 ? "avx2" : "scalar";
}

Tier
parseTier(const std::string &name)
{
    if (name == "scalar")
        return Tier::Scalar;
    if (name == "avx2")
        return Tier::Avx2;
    if (name == "avx512")
        return Tier::Avx512;
    throw util::InvalidArgument("simd::parseTier: unknown tier '" +
                                name +
                                "' (expected scalar, avx2 or avx512)");
}

bool
tierAvailable(Tier tier)
{
    if (tier == Tier::Avx512)
        return avx512Kernels() != nullptr && cpuSupportsAvx512();
    if (tier == Tier::Avx2)
        return avx2Kernels() != nullptr && cpuSupportsAvx2() &&
               cpuSupportsFma();
    return true;
}

Tier
resolveTier(const char *override_name, bool cpu_avx2,
            bool avx2_compiled, bool cpu_avx512, bool avx512_compiled,
            bool cpu_fma)
{
    const bool avx2_available = cpu_avx2 && cpu_fma && avx2_compiled;
    const bool avx512_available = cpu_avx512 && avx512_compiled;
    const Tier widest = avx512_available
                            ? Tier::Avx512
                            : (avx2_available ? Tier::Avx2
                                              : Tier::Scalar);
    if (override_name == nullptr || override_name[0] == '\0' ||
        std::string(override_name) == "auto")
        return widest;

    Tier requested = Tier::Scalar;
    try {
        requested = parseTier(override_name);
    } catch (const util::InvalidArgument &) {
        util::warn(std::string("DTRANK_SIMD/--simd value '") +
                   override_name + "' not recognized; using scalar");
        return Tier::Scalar;
    }
    if (requested == Tier::Avx512 && !avx512_available) {
        util::warn(std::string("avx512 tier requested but ") +
                   (avx512_compiled ? "the CPU does not report AVX-512F"
                                    : "the binary was built without "
                                      "AVX-512 support") +
                   "; using " +
                   tierName(avx2_available ? Tier::Avx2
                                           : Tier::Scalar));
        return avx2_available ? Tier::Avx2 : Tier::Scalar;
    }
    if (requested == Tier::Avx2 && !avx2_available) {
        util::warn(std::string("avx2 tier requested but ") +
                   (!avx2_compiled ? "the binary was built without "
                                     "AVX2 support"
                    : cpu_avx2     ? "the CPU does not report FMA"
                                   : "the CPU does not report AVX2") +
                   "; using scalar");
        return Tier::Scalar;
    }
    return requested;
}

const KernelTable &
kernels()
{
    const KernelTable *table =
        activeSlot().load(std::memory_order_relaxed);
    if (table == nullptr) {
        // First call; concurrent racers resolve to the same value.
        table = resolveFromEnvironment();
        activeSlot().store(table, std::memory_order_relaxed);
    }
    return *table;
}

Tier
activeTier()
{
    const KernelTable *active = &kernels();
    if (active == avx512Kernels())
        return Tier::Avx512;
    return active == avx2Kernels() ? Tier::Avx2 : Tier::Scalar;
}

void
setTier(Tier tier)
{
    util::require(tierAvailable(tier),
                  std::string("simd::setTier: the ") + tierName(tier) +
                      " tier is not available (not compiled into this "
                      "binary, or the CPU lacks its instructions)");
    activeSlot().store(tableFor(tier), std::memory_order_relaxed);
}

Tier
requestTier(Tier tier)
{
    const Tier resolved =
        resolveTier(tierName(tier), cpuSupportsAvx2(),
                    avx2Kernels() != nullptr, cpuSupportsAvx512(),
                    avx512Kernels() != nullptr, cpuSupportsFma());
    activeSlot().store(tableFor(resolved), std::memory_order_relaxed);
    return resolved;
}

} // namespace dtrank::simd
