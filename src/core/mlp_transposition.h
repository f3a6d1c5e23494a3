/**
 * @file
 * MLP^T: data transposition through a multilayer perceptron
 * (Section 3.2.2 of the paper).
 *
 * The network is trained on the predictive machines: each training row
 * is one predictive machine, its features are the benchmark-suite
 * scores on that machine and its target is the application-of-interest
 * score. Prediction feeds each target machine's published benchmark
 * scores through the trained network. The implicit assumption — that
 * the relationship between the suite and the application transfers
 * across machines — is the paper's machine-similarity intuition.
 */

#pragma once

#include <cstdint>
#include <optional>

#include "core/transposition.h"
#include "ml/mlp.h"
#include "ml/normalizer.h"

namespace dtrank::core
{

/** Configuration of the MLP^T predictor. */
struct MlpTranspositionConfig
{
    /** Network hyperparameters; defaults replicate WEKA v3. */
    ml::MlpConfig mlp;
    /**
     * Normalize the input features over the union of predictive and
     * target machines (default). The target machines' benchmark scores
     * are published data available before training, and including them
     * keeps every input inside the sigmoid's sensitive range even when
     * only a handful of predictive machines are available — the
     * robustness the paper demonstrates in Table 4. Disabling this
     * falls back to WEKA's training-data-only normalization (an
     * ablation).
     */
    bool transductiveNormalization = true;
};

/**
 * The MLP^T predictor. A fresh network is trained on every predict()
 * call (each application of interest needs its own model).
 *
 * predict() is equivalent to fit() followed by predictColumns() over
 * the problem's full target matrix; the split exists so a fitted model
 * can be kept warm and asked about target subsets later (the serving
 * path). With transductive normalization the feature scaling is fitted
 * over the predictive machines plus the *fit-time* target universe, so
 * a predictColumns() call over any subset of those columns returns
 * exactly the corresponding entries of the full predict() output.
 */
class MlpTransposition : public TranspositionPredictor
{
  public:
    explicit MlpTransposition(
        MlpTranspositionConfig config = MlpTranspositionConfig{});

    std::vector<double>
    predict(const TranspositionProblem &problem) override;

    /**
     * Trains the network on the problem's predictive machines (and,
     * under transductive normalization, fits the feature scaling over
     * the problem's target universe). Leaves the model ready for
     * predictColumns().
     */
    void fit(const TranspositionProblem &problem);

    /**
     * Predicts the application score on each column of
     * `target_bench_scores` (benchmark x machine orientation, same as
     * TranspositionProblem::targetBenchScores). Requires a prior
     * fit(); bit-identical to the matching entries of predict() on the
     * fitted problem. Batching columns from concurrent queries into
     * one call cannot change any column's result: the forward pass is
     * a per-column computation (ml::Mlp::predictColumns is
     * bit-identical to per-machine scalar predicts) and the
     * normalization is per-element. The scores are taken by value and
     * normalized in place: pass a temporary (or move) to spare the
     * copy.
     */
    std::vector<double>
    predictColumns(linalg::Matrix target_bench_scores) const;

    /**
     * Masked predictColumns: unobserved cells of `target_bench_scores`
     * (per `mask`) are imputed with the column's machine-agnostic
     * benchmark mean — each benchmark's mean over its observed target
     * cells — before the forward pass. A dense-sentinel mask makes
     * this bit-identical to the unmasked overload.
     */
    std::vector<double>
    predictColumns(const linalg::Matrix &target_bench_scores,
                   const dataset::ScoreMask &mask) const;

    std::string name() const override { return "MLP^T"; }

    /**
     * The split-level MLP^T step: for every app in `apps`, the
     * predictions over `target`'s machines of MLP^T with that app held
     * out as the application of interest and config.mlp.seed =
     * seeds[i]. App by app, bit-identical to
     * MlpTransposition(config with that seed).predict(
     * makeLeaveOneOutProblem(predictive, target, app)).
     *
     * Rather than one leave-one-out problem per app, the step builds
     * ONE machine x benchmark training matrix per row block (imputation
     * applied, and under transductive normalization range-normalized
     * over predictive plus target machines). A
     * benchmark's range does not depend on which app is held out, so
     * the matrix minus an app's column holds exactly that app's
     * normalized training inputs. Apps that keep the same predictive
     * machines (those observing the app; all of them when dense) form
     * one row block and train together through ml::Mlp::fitLanes, each
     * network reading its features through a column map that skips
     * its app. The step is planHeldOutApps() followed by
     * trainHeldOutGroup() for every lane group (at most
     * simd::kMlpLanes networks each); the caller schedules the groups,
     * in any order and on any threads. A HeldOutPlan is the step's
     * work: its row blocks and lane groups.
     */
    struct HeldOutPlan
    {
        /** One lane group: positions in `apps` trained together. */
        struct Group
        {
            std::size_t block = 0;
            std::vector<std::size_t> lanes;
        };
        /** Per row block, the predictive machines it keeps. */
        std::vector<std::vector<std::size_t>> blocks;
        /** Every block's balanced lane groups, block by block. */
        std::vector<Group> groups;
    };

    /**
     * Validates the step's arguments and plans its work: apps
     * grouped by kept machines into row blocks, each block cut into as
     * few lane groups as the lane width allows, balanced.
     */
    static HeldOutPlan planHeldOutApps(const dataset::PerfDatabase &predictive,
                                       const dataset::PerfDatabase &target,
                                       const std::vector<std::size_t> &apps,
                                       const std::vector<std::uint64_t> &seeds);

    /**
     * Trains lane group `group` of `plan` (from planHeldOutApps with
     * the same arguments) and writes each of its apps' predictions to
     * out[position in apps]. Groups write disjoint slots, so they may
     * run concurrently; the group builds its block's training matrix
     * itself, which keeps only running groups' matrices alive.
     */
    static void trainHeldOutGroup(const MlpTranspositionConfig &config,
                                  const dataset::PerfDatabase &predictive,
                                  const dataset::PerfDatabase &target,
                                  const std::vector<std::size_t> &apps,
                                  const std::vector<std::uint64_t> &seeds,
                                  const HeldOutPlan &plan, std::size_t group,
                                  std::vector<std::vector<double>> &out);

  private:
    /**
     * The network's config for training on `targets` (the app scores
     * of the kept machines). Under transductive normalization
     * fits target_norm_ on them, maps them in place and turns the
     * network's own normalization off.
     */
    ml::MlpConfig networkConfig(std::vector<double> &targets);

    MlpTranspositionConfig config_;
    std::optional<ml::Mlp> network_;
    ml::RangeNormalizer feature_norm_; ///< Transductive scaling (unused
                                       ///< when the ablation is off).
    ml::RangeNormalizer target_norm_;
};

} // namespace dtrank::core

