/**
 * @file
 * Serving-path smoke + coalescing benchmark, ctest-registered:
 *
 *   1. Bit-identity: for every model, a single RankEngine request over
 *      the full target universe returns exactly the offline
 *      evaluateSplit() predictions (same split, split_tag 0) — the
 *      serve contract, checked with exact double equality.
 *   2. Coalescing correctness: a batched executeBatch() over mixed
 *      target subsets equals per-request execute(), bit for bit —
 *      including the in-batch target-union deduplication.
 *   3. Coalescing throughput: R full-universe MLP^T rank requests
 *      (the default request shape) run one-by-one (--batch-max 1
 *      equivalent) vs grouped into executeBatch() batches, where the
 *      coalescer answers every request in the batch from one deduped
 *      predict(Matrix) GEMM instead of N per-request forward passes.
 *      The measured speedup must reach --min-speedup and is recorded
 *      in the BENCH_serve JSON as the coalescing evidence.
 *   4. Socket smoke: a live Server on an ephemeral port answers ping,
 *      rank (bit-identical to the engine) and metrics; concurrent
 *      same-session clients must actually coalesce (batch-size
 *      histogram mean > 1).
 *
 *   bench_serve --dataset paper --requests 256 --targets 32 \
 *               --json BENCH_serve.json
 */

#include <algorithm>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "experiments/bench_options.h"
#include "experiments/harness.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/rank_engine.h"
#include "serve/server.h"
#include "util/bench_json.h"
#include "util/cli.h"
#include "util/clock.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/string_utils.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace dtrank;

namespace
{

/** Exact double equality, bit-for-bit intent (no tolerance). */
bool
exactlyEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** One record with millisecond timing and context. */
void
record(util::BenchJsonWriter &json, const std::string &section,
       double ms,
       std::vector<std::pair<std::string, std::string>> extra = {})
{
    util::BenchRecord rec;
    rec.name = "BENCH_serve." + section;
    rec.realTimeMs = ms;
    for (auto &kv : extra)
        rec.context.push_back(std::move(kv));
    json.add(std::move(rec));
}

} // namespace

int
main(int argc, char **argv)
{
    util::ArgParser args("bench_serve");
    args.addOption("owned", "predictive (owned) machines", "10");
    args.addOption("requests",
                   "MLP^T requests in the correctness and throughput "
                   "phases",
                   "256");
    args.addOption("targets", "target machines per subset request",
                   "32");
    args.addOption("batch-max", "coalesced batch size", "32");
    args.addOption("min-speedup",
                   "required coalesced-vs-serial per-request speedup "
                   "(1.0 = correctness gate only; the measured ratio "
                   "is recorded in the JSON either way)",
                   "1.0");
    args.addOption("seed", "split/request sampling seed", "2011");
    args.addOption("ga-population", "GA population (kept small)", "16");
    args.addOption("ga-generations", "GA generations (kept small)",
                   "6");
    experiments::addBenchOptions(args);
    if (!args.parse(argc, argv))
        return 0;
    experiments::applyObservabilityOptions(args);

    try {
        util::BenchJsonWriter json("serve");
        experiments::applySimdOption(args, &json);
        const auto seed =
            static_cast<std::uint64_t>(args.getLong("seed"));
        experiments::BenchDataset data =
            experiments::loadDatasetOption(args, seed, &json);
        const dataset::PerfDatabase &db = data.db;
        const std::size_t n_machines = db.machineCount();
        const std::size_t n_bench = db.benchmarkCount();

        const auto n_owned =
            static_cast<std::size_t>(args.getLong("owned"));
        util::require(n_owned >= 1 && n_owned + 2 <= n_machines,
                      "--owned must leave >= 2 target machines");

        // One deterministic split shared by the offline reference and
        // every serve request.
        util::Rng rng(seed);
        std::vector<std::size_t> predictive =
            rng.sampleWithoutReplacement(n_machines, n_owned);
        std::sort(predictive.begin(), predictive.end());
        std::vector<char> is_owned(n_machines, 0);
        for (std::size_t m : predictive)
            is_owned[m] = 1;
        std::vector<std::size_t> targets;
        for (std::size_t m = 0; m < n_machines; ++m)
            if (!is_owned[m])
                targets.push_back(m);

        experiments::MethodSuiteConfig suite;
        suite.gaKnn.ga.populationSize = static_cast<std::size_t>(
            args.getLong("ga-population"));
        suite.gaKnn.ga.generations = static_cast<std::size_t>(
            args.getLong("ga-generations"));

        const std::vector<experiments::Method> methods = {
            experiments::Method::NnT, experiments::Method::MlpT,
            experiments::Method::GaKnn, experiments::Method::SplT,
            experiments::Method::MultiNnT};

        // ---- offline reference -------------------------------------
        auto t0 = util::monotonicNow();
        const experiments::SplitEvaluator evaluator(
            db, data.characteristics, suite);
        const experiments::SplitResults reference =
            evaluator.evaluateSplit(predictive, targets, methods, 0);
        const double offline_ms = util::secondsSince(t0) * 1e3;
        record(json, "offline_reference", offline_ms);

        serve::RankEngineConfig engine_config;
        engine_config.suite = suite;
        serve::RankEngine engine(db, data.characteristics,
                                 engine_config);

        // The wire form of the split: the client owns `predictive` and
        // reports the database's own scores as its partial vector.
        auto makeRequest = [&](experiments::Method method,
                               std::uint32_t app) {
            serve::RankRequest request;
            request.method = method;
            request.app = app;
            for (std::size_t m : predictive)
                request.predictive.emplace_back(
                    static_cast<std::uint32_t>(m),
                    db.scores()(app, m));
            return request;
        };

        // ---- 1. single-request bit-identity ------------------------
        std::size_t checked = 0, mismatched = 0;
        t0 = util::monotonicNow();
        for (const experiments::Method method : methods) {
            for (std::uint32_t app = 0; app < n_bench; ++app) {
                const serve::RankOutcome outcome =
                    engine.execute(makeRequest(method, app));
                util::require(outcome.status == serve::Status::Ok,
                              "serve error for " +
                                  experiments::methodName(method) +
                                  ": " + outcome.error);
                // The outcome is sorted by score; compare by machine.
                std::map<std::uint32_t, double> by_machine;
                for (const serve::RankedMachine &r : outcome.ranking)
                    by_machine[r.machine] = r.predicted;
                const std::vector<double> &expected =
                    reference.at(method)[app].predicted;
                util::require(by_machine.size() == targets.size(),
                              "serve ranking has the wrong size");
                for (std::size_t t = 0; t < targets.size(); ++t) {
                    ++checked;
                    if (!exactlyEqual(
                            expected[t],
                            by_machine.at(static_cast<std::uint32_t>(
                                targets[t]))))
                        ++mismatched;
                }
            }
        }
        const double identity_ms = util::secondsSince(t0) * 1e3;
        util::require(mismatched == 0,
                      "serve predictions diverged from the offline "
                      "evaluateSplit reference: " +
                          std::to_string(mismatched) + " of " +
                          std::to_string(checked) + " values");
        std::cout << "bit-identity: " << checked
                  << " predictions match the offline reference\n";
        record(json, "bit_identity", identity_ms,
               {{"values", std::to_string(checked)}});

        // ---- 2 + 3. coalescing correctness and throughput ----------
        const auto n_requests =
            static_cast<std::size_t>(args.getLong("requests"));
        const auto k_targets = std::min<std::size_t>(
            static_cast<std::size_t>(args.getLong("targets")),
            targets.size());
        const auto batch_max = std::max<std::size_t>(
            1, static_cast<std::size_t>(args.getLong("batch-max")));
        const std::uint32_t bench_app = 0;

        std::vector<serve::RankRequest> subset_requests;
        subset_requests.reserve(n_requests);
        for (std::size_t i = 0; i < n_requests; ++i) {
            serve::RankRequest request =
                makeRequest(experiments::Method::MlpT, bench_app);
            std::vector<std::size_t> pick =
                rng.sampleWithoutReplacement(targets.size(), k_targets);
            std::sort(pick.begin(), pick.end());
            for (std::size_t p : pick)
                request.targets.push_back(
                    static_cast<std::uint32_t>(targets[p]));
            subset_requests.push_back(std::move(request));
        }

        // Pre-partition the batches so the timed region measures the
        // engine, not request copies.
        std::vector<std::vector<serve::RankRequest>> batches;
        for (std::size_t i = 0; i < n_requests; i += batch_max)
            batches.emplace_back(
                subset_requests.begin() +
                    static_cast<std::ptrdiff_t>(i),
                subset_requests.begin() +
                    static_cast<std::ptrdiff_t>(
                        std::min(i + batch_max, n_requests)));

        // Warm the session + fitted model so both execution modes
        // measure prediction, not the one-off fit.
        (void)engine.execute(subset_requests.front());

        std::vector<serve::RankOutcome> serial(n_requests);
        for (std::size_t i = 0; i < n_requests; ++i)
            serial[i] = engine.execute(subset_requests[i]);

        std::vector<serve::RankOutcome> batched;
        batched.reserve(n_requests);
        for (const std::vector<serve::RankRequest> &batch : batches) {
            std::vector<serve::RankOutcome> outcomes =
                engine.executeBatch(batch);
            for (auto &outcome : outcomes)
                batched.push_back(std::move(outcome));
        }

        for (std::size_t i = 0; i < n_requests; ++i) {
            util::require(serial[i].status == serve::Status::Ok &&
                              batched[i].status == serve::Status::Ok,
                          "subset request failed");
            util::require(serial[i].ranking.size() ==
                              batched[i].ranking.size(),
                          "batched ranking has the wrong size");
            for (std::size_t r = 0; r < serial[i].ranking.size();
                 ++r) {
                util::require(
                    serial[i].ranking[r].machine ==
                            batched[i].ranking[r].machine &&
                        exactlyEqual(serial[i].ranking[r].predicted,
                                     batched[i].ranking[r].predicted),
                    "batched MLP^T prediction diverged from the "
                    "per-request path");
            }
        }
        std::cout << "coalescing: " << n_requests
                  << " batched subset requests bit-identical to "
                     "per-request execution\n";

        // ---- 3. coalescing throughput ------------------------------
        // The default request shape: concurrent clients each asking
        // for the full-universe ranking of the same session. Serially
        // each request pays its own forward pass over every target;
        // coalesced, one deduped GEMM per batch answers all of them.
        std::vector<serve::RankRequest> full_requests(
            n_requests, makeRequest(experiments::Method::MlpT,
                                    bench_app));
        for (serve::RankRequest &request : full_requests)
            request.topK = 5;
        std::vector<std::vector<serve::RankRequest>> full_batches;
        for (std::size_t i = 0; i < n_requests; i += batch_max)
            full_batches.emplace_back(
                full_requests.begin() +
                    static_cast<std::ptrdiff_t>(i),
                full_requests.begin() +
                    static_cast<std::ptrdiff_t>(
                        std::min(i + batch_max, n_requests)));
        (void)engine.execute(full_requests.front());

        t0 = util::monotonicNow();
        std::vector<serve::RankOutcome> full_serial(n_requests);
        for (std::size_t i = 0; i < n_requests; ++i)
            full_serial[i] = engine.execute(full_requests[i]);
        const double serial_ms = util::secondsSince(t0) * 1e3;

        t0 = util::monotonicNow();
        std::vector<serve::RankOutcome> full_batched;
        full_batched.reserve(n_requests);
        for (const std::vector<serve::RankRequest> &batch :
             full_batches) {
            std::vector<serve::RankOutcome> outcomes =
                engine.executeBatch(batch);
            for (auto &outcome : outcomes)
                full_batched.push_back(std::move(outcome));
        }
        const double batched_ms = util::secondsSince(t0) * 1e3;

        for (std::size_t i = 0; i < n_requests; ++i) {
            util::require(full_serial[i].status == serve::Status::Ok &&
                              full_batched[i].status ==
                                  serve::Status::Ok,
                          "full-universe request failed");
            util::require(full_serial[i].ranking.size() ==
                              full_batched[i].ranking.size(),
                          "full-universe ranking has the wrong size");
            for (std::size_t r = 0;
                 r < full_serial[i].ranking.size(); ++r)
                util::require(
                    full_serial[i].ranking[r].machine ==
                            full_batched[i].ranking[r].machine &&
                        exactlyEqual(
                            full_serial[i].ranking[r].predicted,
                            full_batched[i].ranking[r].predicted),
                    "coalesced full-universe prediction diverged "
                    "from the per-request path");
        }

        const double speedup =
            batched_ms > 0.0 ? serial_ms / batched_ms : 0.0;
        const double min_speedup = args.getDouble("min-speedup");
        util::TablePrinter table(
            {"requests", "targets/req", "batch", "serial ms",
             "batched ms", "speedup"});
        table.addRow({std::to_string(n_requests),
                      std::to_string(targets.size()),
                      std::to_string(batch_max),
                      util::formatFixed(serial_ms, 2),
                      util::formatFixed(batched_ms, 2),
                      util::formatFixed(speedup, 2)});
        table.print(std::cout);
        record(json, "mlp_serial", serial_ms,
               {{"requests", std::to_string(n_requests)},
                {"targets_per_request",
                 std::to_string(targets.size())}});
        record(json, "mlp_coalesced", batched_ms,
               {{"requests", std::to_string(n_requests)},
                {"targets_per_request",
                 std::to_string(targets.size())},
                {"batch_max", std::to_string(batch_max)},
                {"speedup_vs_serial",
                 util::formatFixed(speedup, 2)}});
        util::require(speedup >= min_speedup,
                      "coalescing speedup " +
                          util::formatFixed(speedup, 2) +
                          " below required " +
                          util::formatFixed(min_speedup, 2));

        // ---- 4. socket smoke ---------------------------------------
        serve::ServerConfig server_config;
        server_config.workers = 4;
        server_config.coalescer.batchMax = batch_max;
        server_config.coalescer.batchHold =
            std::chrono::milliseconds(2);
        serve::Server server(engine, server_config);
        server.start();
        const std::uint16_t port = server.port();

        {
            serve::BlockingClient client;
            client.connect("127.0.0.1", port);
            serve::Request ping;
            ping.type = serve::MessageType::Ping;
            ping.id = 1;
            client.sendRequest(ping);
            serve::Response pong = client.readResponse();
            util::require(pong.id == 1 &&
                              pong.status == serve::Status::Ok,
                          "ping round trip failed");

            serve::Request rank;
            rank.type = serve::MessageType::Rank;
            rank.id = 2;
            rank.rank = subset_requests.front();
            client.sendRequest(rank);
            serve::Response ranked = client.readResponse();
            util::require(ranked.id == 2 &&
                              ranked.status == serve::Status::Ok,
                          "rank round trip failed");
            const serve::RankOutcome &expected = serial.front();
            util::require(ranked.ranking.size() ==
                              expected.ranking.size(),
                          "socket ranking has the wrong size");
            for (std::size_t r = 0; r < ranked.ranking.size(); ++r)
                util::require(
                    ranked.ranking[r].machine ==
                            expected.ranking[r].machine &&
                        exactlyEqual(ranked.ranking[r].predicted,
                                     expected.ranking[r].predicted),
                    "socket rank response diverged from the engine");
        }

        // Concurrent same-session clients: the batch-size histogram
        // must show real coalescing (mean batch > 1).
        obs::Histogram &batch_hist =
            obs::MetricsRegistry::global().histogram(
                "dtrank_serve_batch_size",
                {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0});
        const std::uint64_t count_before = batch_hist.count();
        const double sum_before = batch_hist.sum();

        const std::size_t n_clients = 8;
        const std::size_t per_client = 32;
        util::ThreadPool pool(n_clients);
        util::TaskGroup group(pool);
        for (std::size_t c = 0; c < n_clients; ++c) {
            group.run([&, c] {
                serve::BlockingClient client;
                client.connect("127.0.0.1", port);
                for (std::size_t i = 0; i < per_client; ++i) {
                    serve::Request request;
                    request.type = serve::MessageType::Rank;
                    request.id = c * per_client + i;
                    request.rank = subset_requests[
                        (c * per_client + i) % subset_requests.size()];
                    client.sendRequest(request);
                }
                for (std::size_t i = 0; i < per_client; ++i) {
                    const serve::Response response =
                        client.readResponse();
                    util::require(response.status ==
                                      serve::Status::Ok,
                                  "concurrent rank request failed");
                }
            });
        }
        group.wait();

        const std::uint64_t batch_count =
            batch_hist.count() - count_before;
        const double mean_batch =
            batch_count > 0 ? (batch_hist.sum() - sum_before) /
                                  static_cast<double>(batch_count)
                            : 0.0;
        std::cout << "socket smoke: " << n_clients * per_client
                  << " concurrent requests in " << batch_count
                  << " batches (mean "
                  << util::formatFixed(mean_batch, 2) << ")\n";
        record(json, "socket_concurrent", 0.0,
               {{"requests",
                 std::to_string(n_clients * per_client)},
                {"batches", std::to_string(batch_count)},
                {"mean_batch_size",
                 util::formatFixed(mean_batch, 2)}});
        util::require(mean_batch > 1.0,
                      "request coalescing is not happening: mean "
                      "batch size " +
                          util::formatFixed(mean_batch, 2));

        // A metrics scrape over the socket must carry the serve
        // metric families.
        {
            serve::BlockingClient client;
            client.connect("127.0.0.1", port);
            serve::Request scrape;
            scrape.type = serve::MessageType::Metrics;
            scrape.id = 3;
            client.sendRequest(scrape);
            const serve::Response response = client.readResponse();
            util::require(
                response.status == serve::Status::Ok &&
                    response.text.find("dtrank_serve_batch_size") !=
                        std::string::npos,
                "metrics scrape is missing serve families");
        }
        server.stop();

        json.writeTo(args.get("json"));
        experiments::writeObservabilityOutputs(args);
        std::cout << "bench_serve: all checks passed\n";
        return 0;
    } catch (const util::Error &e) {
        std::cerr << "bench_serve: " << e.what() << "\n";
        return 1;
    }
}
