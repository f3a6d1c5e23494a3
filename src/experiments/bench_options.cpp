#include "experiments/bench_options.h"

#include <string>

#include "dataset/mica.h"
#include "dataset/scaled_spec.h"
#include "dataset/synthetic_spec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/string_utils.h"

namespace dtrank::experiments
{

void
addBenchOptions(util::ArgParser &args)
{
    args.addOption("json",
                   "write machine-readable BENCH_*.json timing records "
                   "to this path", "");
    args.addOption("simd",
                   "kernel dispatch tier: auto, scalar, avx2 or "
                   "avx512 (results are bit-identical across tiers)",
                   "auto");
    args.addOption("metrics-out",
                   "write the metrics registry to this path after the "
                   "run (Prometheus text; JSON when the path ends in "
                   ".json)", "");
    args.addOption("trace-out",
                   "record trace spans and write Chrome trace_event "
                   "JSON to this path (open in chrome://tracing or "
                   "Perfetto)", "");
    args.addOption("dataset",
                   "input database: paper (117x29) or "
                   "scaled:<machines>[x<benchmarks>][:<seed>]",
                   "paper");
    args.addOption("missing",
                   "hide a uniform random fraction of score cells: "
                   "<fraction>[:<seed>] (0 = fully observed; seed "
                   "defaults to 2011)",
                   "0");
}

MissingSpec
parseMissingSpec(const std::string &value)
{
    MissingSpec spec;
    if (value.empty() || value == "0")
        return spec;
    const auto parts = util::split(value, ':');
    util::require(parts.size() <= 2,
                  "--missing: expected '<fraction>[:<seed>]', got '" +
                      value + "'");
    spec.fraction = util::parseDouble(parts[0]);
    util::require(spec.fraction >= 0.0 && spec.fraction < 1.0,
                  "--missing: fraction must be in [0, 1)");
    if (parts.size() == 2)
        spec.seed =
            static_cast<std::uint64_t>(util::parseLong(parts[1]));
    return spec;
}

DatasetSpec
parseDatasetSpec(const std::string &value)
{
    DatasetSpec spec;
    if (value.empty() || value == "paper")
        return spec;

    const auto parts = util::split(value, ':');
    if (parts.size() < 2 || parts.size() > 3 || parts[0] != "scaled")
        throw util::InvalidArgument(
            "--dataset: expected 'paper' or "
            "'scaled:<machines>[x<benchmarks>][:<seed>]', got '" +
            value + "'");

    spec.scaled = true;
    const auto dims = util::split(parts[1], 'x');
    if (dims.empty() || dims.size() > 2)
        throw util::InvalidArgument(
            "--dataset: bad size spec '" + parts[1] + "'");
    const long machines = util::parseLong(dims[0]);
    util::require(machines >= 1, "--dataset: machines must be >= 1");
    spec.machines = static_cast<std::size_t>(machines);
    if (dims.size() == 2) {
        const long benchmarks = util::parseLong(dims[1]);
        util::require(benchmarks >= 3,
                      "--dataset: benchmarks must be >= 3");
        spec.benchmarks = static_cast<std::size_t>(benchmarks);
    }
    if (parts.size() == 3)
        spec.seed = static_cast<std::uint64_t>(
            util::parseLong(parts[2]));
    return spec;
}

BenchDataset
loadDatasetOption(const util::ArgParser &args,
                  std::uint64_t fallback_seed,
                  util::BenchJsonWriter *json)
{
    const DatasetSpec spec = parseDatasetSpec(args.get("dataset"));
    BenchDataset out;
    if (!spec.scaled) {
        out.db = dataset::makePaperDataset(fallback_seed);
        out.characteristics =
            dataset::MicaGenerator().generateForCatalog();
        out.benchmarkProfiles = dataset::benchmarkCatalog();
        out.description = "paper";
    } else {
        dataset::ScaledSpecConfig config;
        config.machines = spec.machines;
        config.benchmarks = spec.benchmarks > 0
                                ? spec.benchmarks
                                : dataset::benchmarkCatalog().size();
        config.seed = spec.seed != 0 ? spec.seed : fallback_seed;
        const dataset::ScaledSpecGenerator generator(config);
        out.db = generator.generate();
        out.benchmarkProfiles = generator.benchmarkProfiles();
        out.characteristics =
            dataset::MicaGenerator().generate(out.benchmarkProfiles);
        out.description = "scaled:" + std::to_string(config.machines) +
                          "x" + std::to_string(config.benchmarks) +
                          ":" + std::to_string(config.seed);
    }
    const MissingSpec missing = parseMissingSpec(args.get("missing"));
    if (missing.fraction > 0.0) {
        out.db = dataset::applyMissingness(out.db, missing.fraction,
                                           missing.seed);
        out.description += "+missing:" +
                           util::formatFixed(missing.fraction, 2) +
                           ":" + std::to_string(missing.seed);
    }
    if (json != nullptr)
        json->addContext("dataset", out.description);
    return out;
}

simd::Tier
applySimdOption(const util::ArgParser &args, util::BenchJsonWriter *json)
{
    const std::string value = args.get("simd");
    const simd::Tier tier =
        value.empty() || value == "auto"
            ? simd::activeTier()
            : simd::requestTier(simd::parseTier(value));
    if (json != nullptr) {
        json->addContext("simd_tier", simd::tierName(tier));
        json->addContext("cpu_features", simd::cpuFeatureString());
    }
    return tier;
}

void
applyObservabilityOptions(const util::ArgParser &args)
{
    if (!args.get("trace-out").empty())
        obs::TraceCollector::global().enable();
}

void
writeObservabilityOutputs(const util::ArgParser &args)
{
    obs::MetricsRegistry::global().writeMetricsFile(
        args.get("metrics-out"));
    obs::TraceCollector::global().writeTo(args.get("trace-out"));
}

} // namespace dtrank::experiments
