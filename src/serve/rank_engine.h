/**
 * @file
 * The serving-side rank engine: answers "rank these candidate machines
 * for this application, given a partial score vector" with the exact
 * arithmetic of the offline experiment harness.
 *
 * Bit-identity contract. A request is resolved into the objects the
 * harness uses — a predictive database whose application row carries
 * the client's partial score vector, and experiments::predictTask with
 * split_tag 0 — so a single request's predicted scores equal the
 * offline evaluateSplit() entries for the same split, model and seed,
 * bit for bit.
 *
 * Zero-copy targets. The harness predicts over a copy of the target
 * machines; the engine predicts over its own database, in place, and
 * picks each requested target out by global machine index. The extra
 * targets (the predictive machines themselves) cannot change any
 * other target's bits:
 *  - NN^T, SPL^T, kNN^T, GA-kNN and the MLP forward pass compute each
 *    target from its own score column alone.
 *  - MLP^T/DEEP^T's transductive feature scaling takes per-benchmark
 *    min/max over the predictive machines plus the targets. That set
 *    is predictive ∪ complement offline and predictive ∪ all machines
 *    here: the same set. std::min/std::max are exact and
 *    order-independent on it, since scores are positive and finite
 *    (no NaN) and log2 of a positive number is never -0.0.
 *
 * MLP^T and coalescing. Because the scaling is fitted over every
 * machine, any requested subset is answered by selecting columns of
 * one fitted model (core::MlpTransposition::fit / predictColumns).
 * That is what makes micro-batching sound: one predictColumns() GEMM
 * over the deduplicated union of many concurrent requests' target
 * columns cannot change any request's scores, because the forward
 * pass is per-column and the normalization per-element — and since
 * concurrent requests overwhelmingly overlap (the default request
 * ranks every machine outside the predictive set), the union is barely
 * wider than one request, so a batch of N costs about one forward pass
 * instead of N.
 *
 * Caching. Sessions — one per (predictive set, partial vector, app) —
 * hold the predictive database and memoize the fitted MLP^T network,
 * the GA-kNN split model and each method's all-machine prediction
 * vector, bounded FIFO. A session holds no copy of the database's
 * target scores. Every memoized value is a deterministic function of
 * (session, database), so a session evicted and requested again is
 * rebuilt to the same bits.
 */

#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "baseline/ga_knn.h"
#include "core/mlp_transposition.h"
#include "dataset/perf_database.h"
#include "experiments/harness.h"
#include "linalg/matrix.h"
#include "serve/protocol.h"
#include "util/hash.h"
#include "util/mutex.h"

namespace dtrank::serve
{

/** Engine tuning knobs. */
struct RankEngineConfig
{
    /**
     * Method hyperparameters and thread budget — the same structure
     * the offline harness takes, so a daemon and an experiment can be
     * configured identically.
     */
    experiments::MethodSuiteConfig suite;
    /** Bounded session cache; oldest session evicted beyond this. */
    std::size_t sessionCapacity = 128;
};

/** Outcome of one rank request. */
struct RankOutcome
{
    Status status = Status::Ok;
    std::string error;
    /** Sorted by predicted score descending, ties by machine index. */
    std::vector<RankedMachine> ranking;
};

/**
 * The ranking order of a response: positions into `scores` (and the
 * parallel, distinct `machines`) sorted by score descending, ties by
 * machine index ascending, truncated to the best `top_k` (0 = all).
 * That order is strict and total, so the truncated result is exactly
 * the prefix of the full sort; only the kept entries are sorted.
 */
std::vector<std::size_t> rankOrder(const std::vector<double> &scores,
                                   const std::vector<std::uint32_t> &machines,
                                   std::uint32_t top_k);

/**
 * Stateless-per-request, cached-per-session rank executor. Thread-safe:
 * workers call execute()/executeBatch() concurrently.
 */
class RankEngine
{
  public:
    /**
     * @param db The full score database (loaded once).
     * @param characteristics Benchmark characteristics for GA-kNN, one
     *        row per benchmark; nullopt disables the GA-kNN method
     *        (requests for it get an error response).
     */
    RankEngine(dataset::PerfDatabase db,
               std::optional<linalg::Matrix> characteristics,
               RankEngineConfig config);

    /**
     * Coalescer batch key: non-zero exactly for valid MLP^T requests,
     * equal iff two requests share a fitted model (same predictive
     * set, partial vector and app). Requests of other methods — and
     * malformed ones, which must fail individually — never coalesce.
     */
    std::uint64_t batchKey(const RankRequest &request) const;

    /** Executes one request. Never throws; errors land in the outcome. */
    RankOutcome execute(const RankRequest &request);

    /**
     * Executes a batch of requests sharing one non-zero batchKey():
     * fits (or reuses) the session's MLP^T model once and runs a
     * single stacked predictColumns() GEMM over the union of the
     * requests' target machines. Outcomes are positionally aligned
     * with the batch and bit-identical to per-request execute() calls.
     * A mixed or singleton batch degrades to per-request execution.
     */
    std::vector<RankOutcome>
    executeBatch(const std::vector<RankRequest> &batch);

    const dataset::PerfDatabase &database() const { return db_; }

    /** True when GA-kNN requests can be served. */
    bool gaKnnAvailable() const { return characteristics_.has_value(); }

    const RankEngineConfig &config() const { return config_; }

  private:
    /** Cached state of one (predictive set, partial vector, app). */
    struct Session
    {
        std::size_t app = 0;
        dataset::PerfDatabase predDb; ///< App row = partial vector.
        /** Predictive machine indices, ascending. */
        std::vector<std::size_t> predictive;

        util::Mutex mutex;
        /** Lazily fitted MLP^T model (scaled over every machine). */
        std::shared_ptr<const core::MlpTransposition> mlp
            DTRANK_GUARDED_BY(mutex);
        /** Lazily trained GA-kNN split model. */
        std::shared_ptr<const baseline::GaKnnModel> gaknn
            DTRANK_GUARDED_BY(mutex);
        /**
         * Per method (enum order): predictions for every machine of
         * the database, indexed by global machine index.
         */
        std::array<std::shared_ptr<const std::vector<double>>, 6>
            fullPredictions DTRANK_GUARDED_BY(mutex);
    };

    /** Request resolved against the database. */
    struct Resolved
    {
        std::shared_ptr<Session> session;
        /** Requested targets as global machine indices. */
        std::vector<std::uint32_t> machines;
    };

    util::HashKey sessionKey(const RankRequest &request) const;
    /** Validates and resolves; throws util::Error with the message. */
    Resolved resolve(const RankRequest &request);
    std::shared_ptr<Session> sessionFor(const RankRequest &request);

    /** The session's fitted MLP^T model, fitting it on first use. */
    std::shared_ptr<const core::MlpTransposition>
    fittedMlp(Session &session);
    /** All-machine predictions of a non-MLP method, memoized. */
    std::shared_ptr<const std::vector<double>>
    fullPrediction(Session &session, experiments::Method method);
    /** Stacked feature matrix (training benchmark rows x machines). */
    linalg::Matrix
    gatherColumns(std::size_t app,
                  const std::vector<std::uint32_t> &machines) const;

    RankOutcome rankFrom(const Resolved &resolved,
                         const std::vector<double> &scores,
                         std::uint32_t top_k) const;

    dataset::PerfDatabase db_;
    std::optional<linalg::Matrix> characteristics_;
    RankEngineConfig config_;

    mutable util::Mutex cacheMutex_;
    std::unordered_map<util::HashKey, std::shared_ptr<Session>,
                       util::HashKeyHasher>
        sessions_ DTRANK_GUARDED_BY(cacheMutex_);
    std::deque<util::HashKey> sessionOrder_
        DTRANK_GUARDED_BY(cacheMutex_);
};

} // namespace dtrank::serve
