/**
 * @file
 * dtrank_serve: the batched ranking-as-a-service daemon.
 *
 * Loads the score database once, keeps fitted sessions warm across
 * requests, and answers rank queries over the length-prefixed
 * binary protocol (src/serve/protocol.h) with the exact arithmetic of
 * the offline experiment harness. Concurrent MLP^T requests sharing a
 * session are coalesced into one GEMM; a bounded admission queue sheds
 * the oldest request with an explicit OVERLOADED response when the
 * daemon falls behind.
 *
 *   dtrank_serve --dataset scaled:10000 --port 7411 --workers 4
 *   dtrank_serve --db machines.dtc --port 7411
 *
 * Runs in the foreground until SIGINT/SIGTERM, then shuts down
 * gracefully (queued requests get OVERLOADED, in-flight batches
 * finish) and writes --metrics-out.
 */

#include <iostream>
#include <optional>
#include <string>

#include "dataset/columnar_io.h"
#include "experiments/bench_options.h"
#include "serve/rank_engine.h"
#include "serve/server.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/logging.h"

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <pthread.h>
#endif

using namespace dtrank;

int
main(int argc, char **argv)
{
    util::ArgParser args("dtrank_serve");
    args.addOption("port", "TCP port (0 = ephemeral, printed)", "0");
    args.addOption("workers", "worker tasks executing rank batches",
                   "4");
    args.addOption("batch-max",
                   "most requests one coalesced batch may carry "
                   "(1 disables coalescing)",
                   "64");
    args.addOption("batch-hold-us",
                   "microseconds a worker holds a partial batch open "
                   "for stragglers",
                   "500");
    args.addOption("queue-depth",
                   "admission-control bound; the oldest queued request "
                   "is shed beyond it",
                   "256");
    args.addOption("session-capacity",
                   "rank sessions kept warm (FIFO eviction)", "128");
    args.addOption("db",
                   "score database file (CSV or columnar); overrides "
                   "--dataset and disables GA-kNN (no benchmark "
                   "characteristics)",
                   "");
    args.addOption("seed", "scaled dataset seed", "2011");
    args.addOption("missing-policy",
                   "ragged database handling: reject (refuse to serve) "
                   "or impute (fill unobserved cells with their "
                   "benchmark's observed mean)",
                   "reject");
    args.addFlag("verbose", "log per-connection progress");
    experiments::addBenchOptions(args);
    if (!args.parse(argc, argv))
        return 0;

#if defined(__unix__) || defined(__APPLE__)
    try {
        if (args.getFlag("verbose"))
            util::setLogLevel(util::LogLevel::Info);
        experiments::applyObservabilityOptions(args);
        experiments::applySimdOption(args);

        serve::RankEngineConfig engine_config;
        engine_config.sessionCapacity = static_cast<std::size_t>(
            args.getLong("session-capacity"));

        std::optional<linalg::Matrix> characteristics;
        std::optional<dataset::PerfDatabase> db;
        const std::string db_path = args.get("db");
        if (!db_path.empty()) {
            db = dataset::loadDatabaseAuto(db_path);
            std::cout << "loaded " << db_path << ": "
                      << db->machineCount() << " machines x "
                      << db->benchmarkCount() << " benchmarks"
                      << " (GA-kNN disabled: no characteristics)\n";
        } else {
            const auto seed =
                static_cast<std::uint64_t>(args.getLong("seed"));
            experiments::BenchDataset data =
                experiments::loadDatasetOption(args, seed);
            std::cout << "loaded " << data.description << ": "
                      << data.db.machineCount() << " machines x "
                      << data.db.benchmarkCount() << " benchmarks\n";
            characteristics = std::move(data.characteristics);
            db = std::move(data.db);
        }

        // The engine serves dense arithmetic; a ragged database is
        // either refused outright or imputed once at startup.
        const std::string missing_policy = args.get("missing-policy");
        util::require(missing_policy == "reject" ||
                          missing_policy == "impute",
                      "--missing-policy must be 'reject' or 'impute'");
        if (db->masked()) {
            util::require(missing_policy == "impute",
                          "database has unobserved score cells; rerun "
                          "with --missing-policy impute or serve a "
                          "fully observed database");
            db = dataset::imputeObserved(*db);
            std::cout << "imputed unobserved cells with per-benchmark "
                         "observed means (--missing-policy impute)\n";
        }

        serve::RankEngine engine(std::move(*db),
                                 std::move(characteristics),
                                 std::move(engine_config));

        serve::ServerConfig server_config;
        server_config.port =
            static_cast<std::uint16_t>(args.getLong("port"));
        server_config.workers =
            static_cast<std::size_t>(args.getLong("workers"));
        server_config.coalescer.queueDepth =
            static_cast<std::size_t>(args.getLong("queue-depth"));
        server_config.coalescer.batchMax =
            static_cast<std::size_t>(args.getLong("batch-max"));
        server_config.coalescer.batchHold =
            std::chrono::microseconds(args.getLong("batch-hold-us"));

        // Block the shutdown signals before the server spawns its
        // threads so every thread inherits the mask and sigwait() is
        // the only consumer.
        sigset_t signals;
        sigemptyset(&signals);
        sigaddset(&signals, SIGINT);
        sigaddset(&signals, SIGTERM);
        pthread_sigmask(SIG_BLOCK, &signals, nullptr);

        serve::Server server(engine, server_config);
        server.start();
        // Machine-parseable so scripts can discover an ephemeral port.
        std::cout << "LISTENING port=" << server.port() << std::endl;

        int received = 0;
        sigwait(&signals, &received);
        std::cout << "signal " << received
                  << " received, shutting down\n";
        server.stop();
        experiments::writeObservabilityOutputs(args);
        return 0;
    } catch (const util::Error &e) {
        std::cerr << "dtrank_serve: " << e.what() << "\n";
        return 1;
    }
#else
    std::cerr << "dtrank_serve requires POSIX sockets\n";
    return 1;
#endif
}
