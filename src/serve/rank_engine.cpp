#include "serve/rank_engine.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string_view>
#include <utility>

#include "core/transposition.h"
#include "util/error.h"

namespace dtrank::serve
{

namespace
{

/** Validated predictive machine indices of a request, in wire order. */
std::vector<std::size_t>
predictiveIndices(const RankRequest &request, std::size_t machine_count)
{
    util::require(!request.predictive.empty(),
                  "rank request: needs >= 1 predictive machine");
    util::require(request.predictive.size() < machine_count,
                  "rank request: predictive set leaves no target "
                  "machines");
    std::vector<std::size_t> indices;
    indices.reserve(request.predictive.size());
    std::vector<char> seen(machine_count, 0);
    for (const auto &[machine, score] : request.predictive) {
        util::require(machine < machine_count,
                      "rank request: predictive machine index out of "
                      "range");
        util::require(seen[machine] == 0,
                      "rank request: duplicate predictive machine");
        seen[machine] = 1;
        util::require(std::isfinite(score) && score > 0.0,
                      "rank request: partial-vector scores must be "
                      "positive and finite");
        indices.push_back(machine);
    }
    return indices;
}

} // namespace

RankEngine::RankEngine(dataset::PerfDatabase db,
                       std::optional<linalg::Matrix> characteristics,
                       RankEngineConfig config)
    : db_(std::move(db)), characteristics_(std::move(characteristics)),
      config_(std::move(config))
{
    util::require(db_.benchmarkCount() >= 3,
                  "RankEngine: needs >= 3 benchmarks");
    util::require(db_.machineCount() >= 2,
                  "RankEngine: needs >= 2 machines");
    util::require(!db_.masked(),
                  "RankEngine: database has unobserved score cells; "
                  "impute first (dataset::imputeObserved)");
    if (characteristics_.has_value())
        util::require(characteristics_->rows() == db_.benchmarkCount(),
                      "RankEngine: characteristics must have one row "
                      "per benchmark");
    util::require(config_.sessionCapacity >= 1,
                  "RankEngine: sessionCapacity must be >= 1");
}

util::HashKey
RankEngine::sessionKey(const RankRequest &request) const
{
    util::ContentHasher hasher;
    hasher.add(std::string_view("serve-session"));
    hasher.add(static_cast<std::uint64_t>(request.app));
    hasher.add(static_cast<std::uint64_t>(request.predictive.size()));
    for (const auto &[machine, score] : request.predictive) {
        hasher.add(static_cast<std::uint64_t>(machine));
        hasher.add(score);
    }
    return hasher.key();
}

std::uint64_t
RankEngine::batchKey(const RankRequest &request) const
{
    // Only MLP^T coalesces: its per-request work is the GEMM forward
    // pass that batching amortizes. The other methods answer subset
    // requests from a memoized all-machine vector, so there is
    // nothing to fuse. The key folds in everything that selects the
    // fitted network; validation failures are left to execute(), where
    // they fail individually.
    if (request.method != experiments::Method::MlpT)
        return 0;
    const util::HashKey key = sessionKey(request);
    const std::uint64_t folded = key.hi ^ (key.lo * 0x2545f4914f6cdd1dULL);
    return folded | 1; // never 0
}

std::shared_ptr<RankEngine::Session>
RankEngine::sessionFor(const RankRequest &request)
{
    const util::HashKey key = sessionKey(request);
    {
        util::LockGuard lock(cacheMutex_);
        auto it = sessions_.find(key);
        if (it != sessions_.end())
            return it->second;
    }

    util::require(request.app < db_.benchmarkCount(),
                  "rank request: application benchmark index out of "
                  "range");
    const std::vector<std::size_t> predictive =
        predictiveIndices(request, db_.machineCount());

    auto session = std::make_shared<Session>();
    session->app = request.app;
    session->predictive = predictive;
    std::sort(session->predictive.begin(), session->predictive.end());

    // The predictive database is the machine selection with the app
    // row replaced by the client's partial score vector. When the
    // client reports the database's own scores the matrix is
    // byte-identical to the harness's selection, so every downstream
    // cache key and prediction matches the offline path.
    dataset::PerfDatabase base = db_.selectMachines(predictive);
    linalg::Matrix scores = base.scores();
    std::vector<double> app_row(predictive.size());
    for (std::size_t p = 0; p < request.predictive.size(); ++p)
        app_row[p] = request.predictive[p].second;
    scores.setRow(request.app, app_row);
    session->predDb = dataset::PerfDatabase(
        base.benchmarks(), base.machines(), std::move(scores));

    util::LockGuard lock(cacheMutex_);
    auto [it, inserted] = sessions_.emplace(key, std::move(session));
    if (inserted) {
        sessionOrder_.push_back(key);
        while (sessionOrder_.size() > config_.sessionCapacity) {
            sessions_.erase(sessionOrder_.front());
            sessionOrder_.pop_front();
        }
    }
    return it->second;
}

RankEngine::Resolved
RankEngine::resolve(const RankRequest &request)
{
    if (request.method == experiments::Method::GaKnn)
        util::require(gaKnnAvailable(),
                      "rank request: GA-kNN is unavailable (no "
                      "benchmark characteristics loaded)");

    Resolved resolved;
    resolved.session = sessionFor(request);
    const std::vector<std::size_t> &predictive =
        resolved.session->predictive;
    const std::size_t machine_count = db_.machineCount();

    if (request.targets.empty()) {
        // Default: rank every machine outside the predictive set (the
        // complement, by a merge against the sorted predictive set).
        resolved.machines.reserve(machine_count - predictive.size());
        auto owned = predictive.begin();
        for (std::size_t m = 0; m < machine_count; ++m) {
            if (owned != predictive.end() && *owned == m)
                ++owned;
            else
                resolved.machines.push_back(static_cast<std::uint32_t>(m));
        }
        return resolved;
    }

    std::vector<char> seen(machine_count, 0);
    resolved.machines.reserve(request.targets.size());
    for (std::uint32_t machine : request.targets) {
        util::require(machine < machine_count,
                      "rank request: target machine index out of range");
        util::require(!std::binary_search(predictive.begin(),
                                          predictive.end(),
                                          std::size_t{machine}),
                      "rank request: target machine is in the "
                      "predictive set");
        util::require(seen[machine] == 0,
                      "rank request: duplicate target machine");
        seen[machine] = 1;
        resolved.machines.push_back(machine);
    }
    return resolved;
}

std::shared_ptr<const core::MlpTransposition>
RankEngine::fittedMlp(Session &session)
{
    util::LockGuard lock(session.mutex);
    if (session.mlp == nullptr) {
        core::MlpTranspositionConfig cfg = config_.suite.mlp;
        cfg.mlp.seed =
            experiments::taskMlpSeed(config_.suite, 0, session.app);
        auto model = std::make_shared<core::MlpTransposition>(cfg);
        model->fit(
            core::makeLeaveOneOutProblem(session.predDb, db_, session.app));
        session.mlp = std::move(model);
    }
    return session.mlp;
}

std::shared_ptr<const std::vector<double>>
RankEngine::fullPrediction(Session &session, experiments::Method method)
{
    const auto slot = static_cast<std::size_t>(method);
    util::LockGuard lock(session.mutex);
    if (session.fullPredictions[slot] != nullptr)
        return session.fullPredictions[slot];

    experiments::TrainedModelCache *cache =
        config_.suite.modelCache.get();
    if (method == experiments::Method::GaKnn &&
        session.gaknn == nullptr) {
        // The split-level GA model, trained (or cache-restored) once
        // per session — the mirror of evaluateSplit()'s split setup.
        auto model =
            std::make_shared<baseline::GaKnnModel>(config_.suite.gaKnn);
        if (cache != nullptr) {
            const util::HashKey model_key = experiments::gaKnnModelKey(
                config_.suite.gaKnn, *characteristics_,
                session.predDb.scores());
            std::vector<double> blob;
            if (cache->lookup(model_key, blob) && blob.size() >= 2) {
                const double fitness = blob.back();
                blob.pop_back();
                model->restore(std::move(blob), fitness);
            } else {
                experiments::CachedFitnessMemo memo(*cache, model_key);
                model->train(*characteristics_, session.predDb.scores(),
                             &memo);
                blob = model->weights();
                blob.push_back(model->trainingFitness());
                cache->store(model_key, std::move(blob));
            }
        } else {
            model->train(*characteristics_, session.predDb.scores());
        }
        session.gaknn = std::move(model);
    }

    auto predicted =
        std::make_shared<std::vector<double>>(experiments::predictTask(
            method, config_.suite, session.predDb, db_, session.app,
            experiments::taskMlpSeed(config_.suite, 0, session.app),
            session.gaknn.get(),
            characteristics_.has_value() ? &*characteristics_ : nullptr,
            cache));
    session.fullPredictions[slot] = std::move(predicted);
    return session.fullPredictions[slot];
}

linalg::Matrix
RankEngine::gatherColumns(std::size_t app,
                          const std::vector<std::uint32_t> &machines) const
{
    // Rows are the training benchmarks — every benchmark except the
    // application of interest, in database order — matching the
    // orientation of TranspositionProblem::targetBenchScores that
    // MlpTransposition::fit() saw.
    const linalg::Matrix &scores = db_.scores();
    const std::size_t n_bench = scores.rows();
    linalg::Matrix out(n_bench - 1, machines.size());
    std::size_t r = 0;
    for (std::size_t b = 0; b < n_bench; ++b) {
        if (b == app)
            continue;
        const double *src = scores.rowData(b);
        for (std::size_t j = 0; j < machines.size(); ++j)
            out(r, j) = src[machines[j]];
        ++r;
    }
    return out;
}

std::vector<std::size_t>
rankOrder(const std::vector<double> &scores,
          const std::vector<std::uint32_t> &machines, std::uint32_t top_k)
{
    std::vector<std::size_t> order(scores.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    const auto before = [&](std::size_t a, std::size_t b) {
        if (scores[a] != scores[b])
            return scores[a] > scores[b];
        return machines[a] < machines[b];
    };
    // A default request keeps the top 10 of ~20k targets: sort only
    // those rather than every target.
    const std::size_t keep =
        top_k == 0 ? order.size()
                   : std::min<std::size_t>(order.size(), top_k);
    const auto mid = order.begin() + static_cast<std::ptrdiff_t>(keep);
    if (mid == order.end())
        std::sort(order.begin(), order.end(), before);
    else
        std::partial_sort(order.begin(), mid, order.end(), before);
    order.erase(mid, order.end());
    return order;
}

RankOutcome
RankEngine::rankFrom(const Resolved &resolved,
                     const std::vector<double> &scores,
                     std::uint32_t top_k) const
{
    RankOutcome outcome;
    const std::vector<std::size_t> order =
        rankOrder(scores, resolved.machines, top_k);
    outcome.ranking.reserve(order.size());
    for (std::size_t i : order)
        outcome.ranking.push_back(
            RankedMachine{resolved.machines[i], scores[i]});
    return outcome;
}

RankOutcome
RankEngine::execute(const RankRequest &request)
{
    try {
        Resolved resolved = resolve(request);
        Session &session = *resolved.session;
        std::vector<double> scores;
        if (request.method == experiments::Method::MlpT) {
            const auto model = fittedMlp(session);
            scores = model->predictColumns(
                gatherColumns(session.app, resolved.machines));
        } else {
            const auto full = fullPrediction(session, request.method);
            scores.reserve(resolved.machines.size());
            for (std::uint32_t machine : resolved.machines)
                scores.push_back((*full)[machine]);
        }
        return rankFrom(resolved, scores, request.topK);
    } catch (const util::Error &e) {
        RankOutcome outcome;
        outcome.status = Status::Error;
        outcome.error = e.what();
        return outcome;
    }
}

std::vector<RankOutcome>
RankEngine::executeBatch(const std::vector<RankRequest> &batch)
{
    std::vector<RankOutcome> outcomes(batch.size());
    if (batch.empty())
        return outcomes;
    if (batch.size() == 1 ||
        batch.front().method != experiments::Method::MlpT) {
        for (std::size_t i = 0; i < batch.size(); ++i)
            outcomes[i] = execute(batch[i]);
        return outcomes;
    }

    // Coalesced MLP^T path: every request shares the batch key, hence
    // the session and the fitted model. Requests that fail to resolve
    // get their individual error outcome and drop out of the stack.
    std::vector<std::size_t> live;
    std::vector<Resolved> resolved(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        try {
            resolved[i] = resolve(batch[i]);
            live.push_back(i);
        } catch (const util::Error &e) {
            outcomes[i].status = Status::Error;
            outcomes[i].error = e.what();
        }
    }
    if (live.empty())
        return outcomes;

    // batchKey is a 64-bit fold of the 128-bit session hash, so a
    // collision (or a cache eviction between resolves) can put
    // requests with *different* sessions in one batch, whose scores
    // come from a different fitted model. Keep only requests that
    // resolved to the lead Session and answer the rest through the
    // per-request path.
    std::vector<std::size_t> coalesced;
    const std::shared_ptr<Session> &lead =
        resolved[live.front()].session;
    for (std::size_t i : live) {
        if (resolved[i].session == lead)
            coalesced.push_back(i);
        else
            outcomes[i] = execute(batch[i]);
    }
    live = std::move(coalesced);

    try {
        Session &session = *resolved[live.front()].session;
        const auto model = fittedMlp(session);

        // Deduplicated union of every live request's target machines,
        // in first-appearance order. Concurrent requests overwhelmingly
        // overlap — the default request ranks every machine outside
        // the predictive set — so one forward pass over the union
        // answers all of them; each machine's forward pass depends
        // only on its own input column, so its score is bit-identical
        // whichever requests share the batch.
        std::vector<std::int32_t> slot(db_.machineCount(), -1);
        std::vector<std::uint32_t> unique;
        for (std::size_t i : live)
            for (std::uint32_t machine : resolved[i].machines)
                if (slot[machine] < 0) {
                    slot[machine] =
                        static_cast<std::int32_t>(unique.size());
                    unique.push_back(machine);
                }
        const std::vector<double> scores =
            model->predictColumns(gatherColumns(session.app, unique));

        std::vector<double> slice;
        for (std::size_t i : live) {
            slice.resize(resolved[i].machines.size());
            for (std::size_t j = 0; j < slice.size(); ++j)
                slice[j] = scores[static_cast<std::size_t>(
                    slot[resolved[i].machines[j]])];
            outcomes[i] = rankFrom(resolved[i], slice, batch[i].topK);
        }
    } catch (const util::Error &e) {
        for (std::size_t i : live) {
            outcomes[i].status = Status::Error;
            outcomes[i].error = e.what();
        }
    }
    return outcomes;
}

} // namespace dtrank::serve
