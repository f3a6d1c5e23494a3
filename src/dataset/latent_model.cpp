#include "dataset/latent_model.h"

#include <cmath>

#include "util/error.h"

namespace dtrank::dataset
{

namespace
{

/**
 * Shorthand constructor for a nickname profile. Capability order:
 * freq, ilp, cache, membw, fp, int, branch (log2 units).
 */
NicknameProfile
mk(const char *vendor, const char *family, const char *nickname,
   const char *isa, int year, double freq, double ilp, double cache,
   double membw, double fp, double intg, double branch)
{
    NicknameProfile p;
    p.vendor = vendor;
    p.family = family;
    p.nickname = nickname;
    p.isa = isa;
    p.releaseYear = year;
    p.capability = {freq, ilp, cache, membw, fp, intg, branch};
    return p;
}

std::vector<NicknameProfile>
buildNicknameCatalog()
{
    std::vector<NicknameProfile> c;

    // The capability values encode the qualitative landscape of the
    // 2004-2009 machines in Table 1 of the paper:
    //  * Front-side-bus Intel Core 2 / Xeon parts: the highest clock and
    //    per-core compute of the era but starved memory bandwidth.
    //  * Nehalem parts (Core i7 / Xeon Gainestown, Bloomfield,
    //    Lynnfield): competitive compute plus an integrated memory
    //    controller, a step-function in memory bandwidth.
    //  * AMD K8/K10: moderate compute with an integrated memory
    //    controller well ahead of FSB Intel parts.
    //  * Itanium Montecito: low clock, in-order, but a 24MB L3 - the
    //    cache-capacity champion.
    //  * POWER6: extreme clock, in-order core, strong FP.
    //  * SPARC64 and UltraSPARC III: older, slower all around.

    // AMD Opteron (K10)
    c.push_back(mk("AMD", "AMD Opteron (K10)", "Barcelona", "x86-64", 2007,
                   1.45, 1.50, 1.30, 2.30, 1.70, 1.60, 1.50));
    c.push_back(mk("AMD", "AMD Opteron (K10)", "Istanbul", "x86-64", 2009,
                   1.70, 1.60, 1.60, 2.50, 1.90, 1.80, 1.60));
    c.push_back(mk("AMD", "AMD Opteron (K10)", "Shanghai", "x86-64", 2008,
                   1.60, 1.55, 1.50, 2.40, 1.80, 1.70, 1.55));

    // AMD Opteron (K8)
    c.push_back(mk("AMD", "AMD Opteron (K8)", "Santa Rosa", "x86-64", 2006,
                   1.15, 1.00, 0.90, 1.85, 1.10, 1.20, 1.00));
    c.push_back(mk("AMD", "AMD Opteron (K8)", "Troy", "x86-64", 2005,
                   1.00, 0.95, 0.80, 1.70, 1.00, 1.10, 0.90));

    // AMD Phenom
    c.push_back(mk("AMD", "AMD Phenom", "Agena", "x86-64", 2007,
                   1.40, 1.45, 1.20, 2.15, 1.60, 1.55, 1.45));
    c.push_back(mk("AMD", "AMD Phenom", "Deneb", "x86-64", 2009,
                   1.65, 1.55, 1.45, 2.35, 1.80, 1.70, 1.55));

    // AMD Turion
    c.push_back(mk("AMD", "AMD Turion", "Trinidad", "x86-64", 2006,
                   0.95, 0.90, 0.70, 1.50, 0.90, 1.00, 0.85));

    // IBM POWER 5 / POWER 6
    c.push_back(mk("IBM", "IBM POWER 5", "POWER5+", "Power", 2005,
                   1.20, 1.30, 2.00, 2.00, 1.80, 1.20, 1.10));
    c.push_back(mk("IBM", "IBM POWER 6", "POWER6", "Power", 2007,
                   2.50, 1.00, 2.10, 2.20, 2.40, 1.80, 1.30));

    // Intel Core 2
    c.push_back(mk("Intel", "Intel Core 2", "Allendale", "x86-64", 2007,
                   1.95, 1.80, 1.30, 0.95, 1.90, 1.95, 1.80));
    c.push_back(mk("Intel", "Intel Core 2", "Conroe", "x86-64", 2006,
                   2.00, 1.80, 1.50, 1.00, 1.95, 2.00, 1.80));
    c.push_back(mk("Intel", "Intel Core 2", "Kentsfield", "x86-64", 2006,
                   2.10, 1.80, 1.60, 0.95, 2.00, 2.05, 1.80));
    c.push_back(mk("Intel", "Intel Core 2", "Merom-2M", "x86-64", 2007,
                   1.80, 1.75, 1.20, 0.85, 1.70, 1.85, 1.75));
    c.push_back(mk("Intel", "Intel Core 2", "Penryn-3M", "x86-64", 2008,
                   2.20, 1.85, 1.50, 1.00, 2.10, 2.10, 1.85));
    c.push_back(mk("Intel", "Intel Core 2", "Wolfdale", "x86-64", 2008,
                   2.50, 1.90, 1.85, 1.05, 2.40, 2.35, 1.90));
    c.push_back(mk("Intel", "Intel Core 2", "Yorkfield", "x86-64", 2008,
                   2.45, 1.90, 1.90, 1.00, 2.35, 2.30, 1.90));

    // Intel Core Duo
    c.push_back(mk("Intel", "Intel Core Duo", "Yonah", "x86", 2006,
                   1.30, 1.25, 1.00, 0.70, 1.00, 1.40, 1.30));

    // Intel Core i7
    c.push_back(mk("Intel", "Intel Core i7", "Bloomfield XE", "x86-64",
                   2009, 2.00, 1.95, 1.90, 2.50, 2.05, 2.05, 1.90));

    // Intel Itanium
    c.push_back(mk("Intel", "Intel Itanium", "Montecito", "IA-64", 2006,
                   0.75, 1.50, 3.40, 1.25, 2.10, 0.90, 0.70));

    // Intel Pentium D
    c.push_back(mk("Intel", "Intel Pentium D", "Presler", "x86-64", 2006,
                   1.45, 0.85, 1.25, 0.90, 1.25, 1.10, 0.80));

    // Intel Pentium Dual-Core
    c.push_back(mk("Intel", "Intel Pentium Dual-Core", "Allendale",
                   "x86-64", 2008,
                   1.90, 1.75, 1.00, 0.90, 1.80, 1.90, 1.75));

    // Intel Pentium M
    c.push_back(mk("Intel", "Intel Pentium M", "Dothan", "x86", 2005,
                   1.00, 1.10, 1.10, 0.50, 0.80, 1.20, 1.20));

    // Intel Xeon
    c.push_back(mk("Intel", "Intel Xeon", "Bloomfield", "x86-64", 2009,
                   1.95, 1.90, 1.90, 2.60, 2.00, 2.00, 1.85));
    c.push_back(mk("Intel", "Intel Xeon", "Clovertown", "x86-64", 2007,
                   2.05, 1.80, 1.60, 1.00, 2.00, 2.00, 1.80));
    c.push_back(mk("Intel", "Intel Xeon", "Conroe", "x86-64", 2006,
                   2.00, 1.80, 1.50, 1.00, 1.95, 2.00, 1.80));
    c.push_back(mk("Intel", "Intel Xeon", "Dunnington", "x86-64", 2008,
                   2.10, 1.85, 2.30, 1.05, 2.05, 2.05, 1.85));
    c.push_back(mk("Intel", "Intel Xeon", "Gainestown", "x86-64", 2009,
                   2.00, 1.95, 1.95, 2.70, 2.05, 2.05, 1.90));
    c.push_back(mk("Intel", "Intel Xeon", "Harpertown", "x86-64", 2007,
                   2.30, 1.85, 1.85, 1.10, 2.25, 2.20, 1.85));
    c.push_back(mk("Intel", "Intel Xeon", "Kentsfield", "x86-64", 2007,
                   2.10, 1.80, 1.60, 0.95, 2.00, 2.05, 1.80));
    c.push_back(mk("Intel", "Intel Xeon", "Lynnfield", "x86-64", 2009,
                   1.90, 1.85, 1.85, 2.45, 1.95, 1.95, 1.80));
    c.push_back(mk("Intel", "Intel Xeon", "Tigerton", "x86-64", 2007,
                   2.05, 1.80, 1.60, 0.95, 2.00, 2.00, 1.80));
    c.push_back(mk("Intel", "Intel Xeon", "Tulsa", "x86-64", 2006,
                   1.50, 0.85, 2.20, 1.00, 1.30, 1.10, 0.80));
    c.push_back(mk("Intel", "Intel Xeon", "Wolfdale-DP", "x86-64", 2008,
                   2.60, 1.90, 1.90, 1.15, 2.45, 2.40, 1.90));
    c.push_back(mk("Intel", "Intel Xeon", "Woodcrest", "x86-64", 2006,
                   2.10, 1.80, 1.60, 1.10, 2.00, 2.05, 1.80));
    c.push_back(mk("Intel", "Intel Xeon", "Yorkfield", "x86-64", 2008,
                   2.40, 1.90, 1.90, 1.05, 2.30, 2.30, 1.90));

    // SPARC64 VI / VII
    c.push_back(mk("Fujitsu", "SPARC64 VI", "Olympus-C", "SPARC", 2007,
                   1.05, 1.00, 1.70, 1.30, 1.50, 1.00, 0.90));
    c.push_back(mk("Fujitsu", "SPARC64 VII", "Jupiter", "SPARC", 2008,
                   1.30, 1.20, 1.90, 1.50, 1.75, 1.20, 1.10));

    // UltraSPARC III
    c.push_back(mk("Sun", "UltraSPARC III", "Cheetah+", "SPARC", 2004,
                   0.25, 0.30, 0.80, 0.60, 0.50, 0.35, 0.30));

    // Server Nehalem platforms carry the streaming boost; the desktop
    // Core i7 Bloomfield XE (dual-channel boards, desktop-oriented
    // submissions) does not, which is what breaks single-proxy linear
    // prediction for streaming outliers.
    for (NicknameProfile &p : c) {
        if (p.family == "Intel Xeon" &&
            (p.nickname == "Gainestown" || p.nickname == "Bloomfield" ||
             p.nickname == "Lynnfield")) {
            p.streamingPlatformBoost = true;
        }
    }

    return c;
}

/**
 * Shorthand constructor for a benchmark profile. Demand order:
 * freq, ilp, cache, membw, fp, int, branch; must sum to 1.
 */
BenchmarkProfile
bench(const char *name, BenchmarkDomain domain, const char *language,
      const char *area, double offset, double freq, double ilp,
      double cache, double membw, double fp, double intg, double branch)
{
    BenchmarkProfile p;
    p.info.name = name;
    p.info.domain = domain;
    p.info.language = language;
    p.info.area = area;
    p.offset = offset;
    p.demand = {freq, ilp, cache, membw, fp, intg, branch};
    double sum = 0.0;
    for (double w : p.demand)
        sum += w;
    DTRANK_ASSERT_MSG(std::fabs(sum - 1.0) < 1e-9,
                      "benchmark demand must sum to 1");
    return p;
}

std::vector<BenchmarkProfile>
buildBenchmarkCatalog()
{
    using D = BenchmarkDomain;
    std::vector<BenchmarkProfile> c;

    // Demand profiles follow the accepted characterization of SPEC
    // CPU2006: most benchmarks are compute/branch bound with moderate
    // cache sensitivity; libquantum, lbm, leslie3d, cactusADM, milc,
    // GemsFDTD and mcf are memory-bandwidth/latency bound; hmmer and
    // namd are compact-working-set compute kernels that reward large
    // caches and have below-average SPEC ratios (the paper's
    // "lower-than-average" outliers, Section 6.2).

    // --- 12 SPECint 2006 ---
    c.push_back(bench("astar", D::Integer, "C++", "Path-finding", 2.00,
                      0.20, 0.10, 0.30, 0.15, 0.00, 0.15, 0.10));
    c.push_back(bench("bzip2", D::Integer, "C", "Compression", 2.10,
                      0.30, 0.15, 0.15, 0.10, 0.00, 0.25, 0.05));
    c.push_back(bench("gcc", D::Integer, "C", "C Compiler", 2.20,
                      0.25, 0.15, 0.20, 0.15, 0.00, 0.15, 0.10));
    c.push_back(bench("gobmk", D::Integer, "C", "AI: Go", 2.00,
                      0.30, 0.15, 0.10, 0.05, 0.00, 0.20, 0.20));
    c.push_back(bench("h264ref", D::Integer, "C", "Video Compression",
                      2.30,
                      0.30, 0.25, 0.10, 0.05, 0.05, 0.20, 0.05));
    c.push_back(bench("hmmer", D::Integer, "C", "Search Gene Sequence",
                      1.60,
                      0.10, 0.05, 0.55, 0.00, 0.05, 0.25, 0.00));
    c.push_back(bench("libquantum", D::Integer, "C", "Quantum Computing",
                      3.10,
                      0.08, 0.02, 0.05, 0.75, 0.00, 0.10, 0.00));
    c.push_back(bench("mcf", D::Integer, "C",
                      "Combinatorial Optimization", 2.30,
                      0.05, 0.05, 0.35, 0.40, 0.00, 0.10, 0.05));
    c.push_back(bench("omnetpp", D::Integer, "C++",
                      "Discrete Event Simulation", 2.00,
                      0.15, 0.10, 0.35, 0.20, 0.00, 0.10, 0.10));
    c.push_back(bench("perlbench", D::Integer, "C",
                      "Programming Language", 2.20,
                      0.30, 0.20, 0.10, 0.05, 0.00, 0.20, 0.15));
    c.push_back(bench("sjeng", D::Integer, "C", "AI: chess", 2.10,
                      0.30, 0.15, 0.10, 0.05, 0.00, 0.20, 0.20));
    c.push_back(bench("xalancbmk", D::Integer, "C++", "XML Processing",
                      2.20,
                      0.20, 0.15, 0.25, 0.15, 0.00, 0.15, 0.10));

    // --- 17 SPECfp 2006 ---
    c.push_back(bench("bwaves", D::FloatingPoint, "Fortran",
                      "Fluid Dynamics", 2.40,
                      0.10, 0.10, 0.15, 0.35, 0.30, 0.00, 0.00));
    c.push_back(bench("cactusADM", D::FloatingPoint, "C/Fortran",
                      "General Relativity", 2.75,
                      0.05, 0.05, 0.10, 0.55, 0.25, 0.00, 0.00));
    c.push_back(bench("calculix", D::FloatingPoint, "C/Fortran",
                      "Structural Mechanics", 2.20,
                      0.20, 0.15, 0.10, 0.10, 0.40, 0.05, 0.00));
    c.push_back(bench("dealII", D::FloatingPoint, "C++",
                      "Finite Element Analysis", 2.30,
                      0.20, 0.15, 0.15, 0.15, 0.30, 0.05, 0.00));
    c.push_back(bench("gamess", D::FloatingPoint, "Fortran",
                      "Quantum Chemistry", 2.20,
                      0.25, 0.20, 0.10, 0.00, 0.40, 0.05, 0.00));
    c.push_back(bench("GemsFDTD", D::FloatingPoint, "Fortran",
                      "Computational Electromagnetics", 2.30,
                      0.08, 0.07, 0.17, 0.40, 0.28, 0.00, 0.00));
    c.push_back(bench("gromacs", D::FloatingPoint, "C/Fortran",
                      "Molecular Dynamics", 2.10,
                      0.25, 0.20, 0.05, 0.05, 0.40, 0.05, 0.00));
    c.push_back(bench("lbm", D::FloatingPoint, "C",
                      "Fluid Dynamics (LBM)", 2.60,
                      0.05, 0.05, 0.05, 0.60, 0.25, 0.00, 0.00));
    c.push_back(bench("leslie3d", D::FloatingPoint, "Fortran",
                      "Fluid Dynamics", 2.65,
                      0.05, 0.05, 0.08, 0.57, 0.25, 0.00, 0.00));
    c.push_back(bench("milc", D::FloatingPoint, "C",
                      "Quantum Chromodynamics", 2.30,
                      0.08, 0.07, 0.15, 0.40, 0.30, 0.00, 0.00));
    c.push_back(bench("namd", D::FloatingPoint, "C++",
                      "Molecular Dynamics", 1.60,
                      0.08, 0.07, 0.50, 0.00, 0.35, 0.00, 0.00));
    c.push_back(bench("povray", D::FloatingPoint, "C++", "Ray Tracing",
                      2.20,
                      0.30, 0.20, 0.05, 0.00, 0.35, 0.05, 0.05));
    c.push_back(bench("soplex", D::FloatingPoint, "C++",
                      "Linear Programming", 2.20,
                      0.10, 0.10, 0.25, 0.30, 0.20, 0.05, 0.00));
    c.push_back(bench("sphinx3", D::FloatingPoint, "C",
                      "Speech Recognition", 2.20,
                      0.15, 0.10, 0.20, 0.20, 0.30, 0.05, 0.00));
    c.push_back(bench("tonto", D::FloatingPoint, "Fortran",
                      "Quantum Chemistry", 2.20,
                      0.20, 0.15, 0.10, 0.10, 0.40, 0.05, 0.00));
    c.push_back(bench("wrf", D::FloatingPoint, "C/Fortran",
                      "Weather Prediction", 2.30,
                      0.15, 0.10, 0.15, 0.25, 0.35, 0.00, 0.00));
    c.push_back(bench("zeusmp", D::FloatingPoint, "Fortran",
                      "Astrophysics / MHD", 2.30,
                      0.15, 0.15, 0.15, 0.25, 0.30, 0.00, 0.00));

    return c;
}

} // namespace

const std::vector<NicknameProfile> &
nicknameCatalog()
{
    static const std::vector<NicknameProfile> catalog =
        buildNicknameCatalog();
    return catalog;
}

const std::vector<BenchmarkProfile> &
benchmarkCatalog()
{
    static const std::vector<BenchmarkProfile> catalog =
        buildBenchmarkCatalog();
    return catalog;
}

} // namespace dtrank::dataset
