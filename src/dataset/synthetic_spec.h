/**
 * @file
 * Generator producing the synthetic SPEC CPU2006 performance database
 * that substitutes for the paper's published spec.org numbers (117
 * machines, 29 benchmarks).
 */

#pragma once

#include <cstdint>

#include "dataset/latent_model.h"
#include "dataset/perf_database.h"

namespace dtrank::dataset
{

/**
 * Knobs of the synthetic database generator. The rest of its
 * calibration is fixed; see the constants in latent_model.h.
 */
struct SyntheticSpecConfig
{
    /** Seed controlling every random draw in the generator. */
    std::uint64_t seed = 2011;
    /** Per-(benchmark, machine) measurement noise, log2 stddev. */
    double measurementNoiseSigma = kMeasurementNoiseSigma;
    /**
     * Extra log2 score of the streaming platform boost (see
     * kStreamingBoost); 0 turns the boost off.
     */
    double streamingBoost = kStreamingBoost;
};

/**
 * Deterministic synthetic SPEC database builder.
 *
 * For each machine the generator perturbs its nickname's capability
 * vector (variant bin + jitter) and emits scores
 * 2^(offset + demand . capability + noise) for every benchmark, i.e.
 * log performance is bilinear in workload demand and machine
 * capability — the structural assumption that makes both the paper's
 * method and its baselines meaningful.
 */
class SyntheticSpecGenerator
{
  public:
    explicit SyntheticSpecGenerator(
        SyntheticSpecConfig config = SyntheticSpecConfig{});

    /** Builds the full 117-machine, 29-benchmark database. */
    PerfDatabase generate() const;

  private:
    SyntheticSpecConfig config_;
};

/** Convenience: the default paper dataset (default config). */
PerfDatabase makePaperDataset(std::uint64_t seed = 2011);

} // namespace dtrank::dataset

