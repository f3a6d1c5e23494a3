/**
 * @file
 * loadgen: open-loop load generator for the dtrank_serve daemon.
 *
 * Pre-generates a fixed schedule of rank requests (mixed model types,
 * a bounded pool of sessions so MLP^T requests can coalesce, partial
 * vectors taken from the same --dataset the daemon loaded, so every
 * request is satisfiable and bit-identical to the offline path),
 * then sends them at the target rate regardless of response latency —
 * the open-loop discipline that exposes queueing delay instead of
 * hiding it behind a stalled closed loop.
 *
 * Latency is measured from each request's *scheduled* send time to its
 * response, so sender stalls count against the server (no coordinated
 * omission). Reports throughput and p50/p99/p999 per run, appends
 * BenchJsonWriter records for bench_compare, and can scrape the
 * daemon's Prometheus text (--scrape-out) for obs_check.
 *
 *   loadgen --port 7411 --dataset scaled:2000 --qps 2000 --duration 3 \
 *           --methods mlp --json BENCH_serve_loadgen.json
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "experiments/bench_options.h"
#include "serve/client.h"
#include "serve/protocol.h"
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

experiments::Method
parseMethod(const std::string &name)
{
    if (name == "nn")
        return experiments::Method::NnT;
    if (name == "mlp")
        return experiments::Method::MlpT;
    if (name == "gaknn")
        return experiments::Method::GaKnn;
    if (name == "spl")
        return experiments::Method::SplT;
    if (name == "knn")
        return experiments::Method::MultiNnT;
    throw util::InvalidArgument(
        "--methods: unknown method \"" + name +
        "\" (expected nn|mlp|gaknn|spl|knn)");
}

/** Sorted-sample quantile: the ceil(q*N)-th smallest value. */
double
quantileOf(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[std::min(sorted.size() - 1,
                           rank == 0 ? 0 : rank - 1)];
}

} // namespace

int
main(int argc, char **argv)
{
    util::ArgParser args("loadgen");
    args.addOption("host", "daemon address (IPv4)", "127.0.0.1");
    args.addOption("port", "daemon TCP port", "0");
    args.addOption("qps", "target request rate (open loop)", "2000");
    args.addOption("duration", "send window in seconds", "3");
    args.addOption("connections", "parallel TCP connections", "4");
    args.addOption("methods",
                   "comma-separated round-robin model mix "
                   "(nn|mlp|gaknn|spl|knn)",
                   "mlp");
    args.addOption("sessions",
                   "distinct (app, partial-vector) sessions cycled "
                   "through; fewer sessions = more coalescing",
                   "4");
    args.addOption("owned", "machines per partial vector", "10");
    args.addOption("targets",
                   "candidate machines per request (0 = all "
                   "non-predictive)",
                   "64");
    args.addOption("top", "topK truncation (0 = all)", "10");
    args.addOption("seed", "request-sampling seed", "7");
    args.addOption("drain-ms",
                   "grace period for trailing responses after the "
                   "send window",
                   "5000");
    args.addOption("scrape-out",
                   "write the daemon's Prometheus scrape here", "");
    experiments::addBenchOptions(args);
    if (!args.parse(argc, argv))
        return 0;

    try {
        const auto port =
            static_cast<std::uint16_t>(args.getLong("port"));
        util::require(port != 0, "--port is required");
        const double qps = args.getDouble("qps");
        util::require(qps > 0.0, "--qps must be > 0");
        const double duration = args.getDouble("duration");
        util::require(duration > 0.0, "--duration must be > 0");
        const auto n_conns =
            static_cast<std::size_t>(args.getLong("connections"));
        util::require(n_conns >= 1, "--connections must be >= 1");

        std::vector<experiments::Method> mix;
        for (const std::string &field :
             util::split(args.get("methods"), ','))
            mix.push_back(parseMethod(util::trim(field)));
        util::require(!mix.empty(), "--methods: need >= 1 method");

        util::BenchJsonWriter json("serve");
        const auto seed =
            static_cast<std::uint64_t>(args.getLong("seed"));
        const experiments::BenchDataset data =
            experiments::loadDatasetOption(args, seed, &json);
        const linalg::Matrix &scores = data.db.scores();
        const std::size_t n_machines = data.db.machineCount();
        const std::size_t n_bench = data.db.benchmarkCount();

        // ---- pre-generate sessions and the request schedule --------
        const auto n_sessions =
            static_cast<std::size_t>(args.getLong("sessions"));
        const auto n_owned =
            static_cast<std::size_t>(args.getLong("owned"));
        const auto n_targets =
            static_cast<std::size_t>(args.getLong("targets"));
        util::require(n_sessions >= 1, "--sessions must be >= 1");
        util::require(n_owned >= 1 && n_owned < n_machines,
                      "--owned must leave target machines");
        util::Rng rng(seed);

        // A session is its app and sorted partial vector only: the
        // target machines are sampled per request by rejection against
        // the predictive set, so memory stays O(sessions x owned), not
        // O(sessions x machines) (~40 GB at 100k sessions on 100k
        // machines).
        struct SessionSpec
        {
            std::uint32_t app = 0;
            std::vector<std::pair<std::uint32_t, double>> predictive;
        };
        const auto owns = [](const SessionSpec &spec, std::uint32_t m) {
            return std::binary_search(
                spec.predictive.begin(), spec.predictive.end(),
                std::pair<std::uint32_t, double>(m, 0.0),
                [](const auto &a, const auto &b) {
                    return a.first < b.first;
                });
        };
        std::vector<SessionSpec> sessions(n_sessions);
        for (std::size_t s = 0; s < n_sessions; ++s) {
            SessionSpec &spec = sessions[s];
            spec.app = static_cast<std::uint32_t>(s % n_bench);
            std::set<std::uint32_t> owned;
            while (owned.size() < n_owned)
                owned.insert(static_cast<std::uint32_t>(
                    rng.index(n_machines)));
            // The database's own score: satisfiable by construction
            // and byte-identical to the offline harness's predictive
            // matrix.
            for (std::uint32_t m : owned)
                spec.predictive.emplace_back(m, scores(spec.app, m));
        }

        const auto total = static_cast<std::size_t>(qps * duration);
        util::require(total >= 1,
                      "qps * duration must cover >= 1 request");
        const auto top_k =
            static_cast<std::uint32_t>(args.getLong("top"));

        std::vector<std::vector<std::uint8_t>> frames(total);
        std::vector<std::uint8_t> method_of(total);
        std::set<std::uint32_t> picked;
        for (std::size_t i = 0; i < total; ++i) {
            const SessionSpec &spec = sessions[i % n_sessions];
            serve::Request request;
            request.type = serve::MessageType::Rank;
            request.id = i;
            request.rank.method = mix[i % mix.size()];
            request.rank.app = spec.app;
            request.rank.topK = top_k;
            request.rank.predictive = spec.predictive;
            if (n_targets != 0 && n_targets < n_machines - n_owned) {
                picked.clear();
                while (picked.size() < n_targets) {
                    const auto m =
                        static_cast<std::uint32_t>(rng.index(n_machines));
                    if (!owns(spec, m))
                        picked.insert(m);
                }
                request.rank.targets.assign(picked.begin(), picked.end());
            }
            method_of[i] =
                static_cast<std::uint8_t>(request.rank.method);
            serve::appendFrame(frames[i],
                               serve::encodeRequest(request));
        }
        std::cout << "loadgen: " << total << " requests over "
                  << n_sessions << " sessions generated\n"
                  << std::flush;

        // ---- open-loop send + receive ------------------------------
        const std::string host = args.get("host");
        std::vector<serve::BlockingClient> clients(n_conns);
        for (serve::BlockingClient &client : clients)
            client.connect(host, port);

        const auto period = std::chrono::nanoseconds(
            static_cast<std::int64_t>(1e9 / qps));
        const int drain_ms =
            static_cast<int>(args.getLong("drain-ms"));
        const auto t0 = util::monotonicNow() +
                        std::chrono::milliseconds(50); // ramp slack

        // Written racelessly: latencies/status slots are per request
        // id, each id handled by exactly one receiver; sent counts are
        // per connection.
        std::vector<double> latencies(total, -1.0);
        std::vector<std::uint8_t> status_of(total, 255);
        std::vector<std::size_t> sent_on(n_conns, 0);

        util::ThreadPool pool(2 * n_conns);
        util::TaskGroup group(pool);
        for (std::size_t c = 0; c < n_conns; ++c) {
            group.run([&, c] { // sender: fire at the schedule
                for (std::size_t i = c; i < total; i += n_conns) {
                    const auto due =
                        t0 + std::chrono::nanoseconds(
                                 period.count() *
                                 static_cast<std::int64_t>(i));
                    for (;;) {
                        const auto now = util::monotonicNow();
                        if (now >= due)
                            break;
                        const auto gap = std::chrono::duration_cast<
                            std::chrono::nanoseconds>(due - now);
                        std::this_thread::sleep_for(std::min<
                            std::chrono::nanoseconds>(
                            gap, std::chrono::microseconds(200)));
                    }
                    clients[c].sendBytes(frames[i].data(),
                                         frames[i].size());
                    ++sent_on[c];
                }
            });
            group.run([&, c] { // receiver: match on echoed id
                const auto deadline =
                    t0 +
                    std::chrono::nanoseconds(static_cast<std::int64_t>(
                        duration * 1e9)) +
                    std::chrono::milliseconds(drain_ms);
                std::size_t received = 0;
                const std::size_t expected =
                    total / n_conns + (c < total % n_conns ? 1 : 0);
                serve::Response response;
                while (received < expected) {
                    const auto now = util::monotonicNow();
                    if (now >= deadline)
                        break;
                    const int wait_ms = static_cast<int>(
                        std::chrono::duration_cast<
                            std::chrono::milliseconds>(deadline - now)
                            .count() +
                        1);
                    bool got = false;
                    try {
                        got = clients[c].tryReadResponse(
                            response, std::min(wait_ms, 100));
                    } catch (const util::Error &) {
                        break; // connection lost; count what we have
                    }
                    if (!got)
                        continue;
                    const std::size_t id =
                        static_cast<std::size_t>(response.id);
                    if (id >= total)
                        continue;
                    const auto scheduled =
                        t0 + std::chrono::nanoseconds(
                                 period.count() *
                                 static_cast<std::int64_t>(id));
                    latencies[id] = std::chrono::duration<double>(
                                        util::monotonicNow() -
                                        scheduled)
                                        .count();
                    status_of[id] =
                        static_cast<std::uint8_t>(response.status);
                    ++received;
                }
            });
        }
        group.wait();

        // ---- aggregate ---------------------------------------------
        const double elapsed =
            std::chrono::duration<double>(util::monotonicNow() - t0)
                .count();
        std::size_t n_ok = 0, n_error = 0, n_overloaded = 0,
                    n_lost = 0;
        std::vector<double> ok_lat;
        ok_lat.reserve(total);
        for (std::size_t i = 0; i < total; ++i) {
            switch (status_of[i]) {
              case 0:
                ++n_ok;
                ok_lat.push_back(latencies[i]);
                break;
              case 1:
                ++n_error;
                break;
              case 2:
                ++n_overloaded;
                break;
              default:
                ++n_lost;
                break;
            }
        }
        std::sort(ok_lat.begin(), ok_lat.end());
        const double p50 = quantileOf(ok_lat, 0.50) * 1e3;
        const double p99 = quantileOf(ok_lat, 0.99) * 1e3;
        const double p999 = quantileOf(ok_lat, 0.999) * 1e3;
        const double throughput =
            elapsed > 0.0 ? static_cast<double>(n_ok) / elapsed : 0.0;

        util::TablePrinter table({"sent", "ok", "error", "overloaded",
                                  "lost", "rps", "p50 ms", "p99 ms",
                                  "p999 ms"});
        table.addRow({std::to_string(total), std::to_string(n_ok),
                      std::to_string(n_error),
                      std::to_string(n_overloaded),
                      std::to_string(n_lost),
                      util::formatFixed(throughput, 0),
                      util::formatFixed(p50, 3),
                      util::formatFixed(p99, 3),
                      util::formatFixed(p999, 3)});
        table.print(std::cout);

        json.addContext("methods", args.get("methods"));
        json.addContext("qps", args.get("qps"));
        json.addContext("connections", args.get("connections"));
        auto record = [&json](const std::string &name, double ms,
                              std::vector<std::pair<std::string,
                                                    std::string>>
                                  extra) {
            util::BenchRecord rec;
            rec.name = "BENCH_serve.loadgen_" + name;
            rec.realTimeMs = ms;
            for (auto &kv : extra)
                rec.context.push_back(std::move(kv));
            json.add(std::move(rec));
        };
        record("p50", p50, {});
        record("p99", p99, {});
        record("p999", p999, {});
        record("window", elapsed * 1e3,
               {{"rps", util::formatFixed(throughput, 1)},
                {"ok", std::to_string(n_ok)},
                {"error", std::to_string(n_error)},
                {"overloaded", std::to_string(n_overloaded)},
                {"lost", std::to_string(n_lost)}});

        // ---- optional Prometheus scrape ----------------------------
        const std::string scrape_out = args.get("scrape-out");
        if (!scrape_out.empty()) {
            serve::Request scrape;
            scrape.type = serve::MessageType::Metrics;
            scrape.id = total;
            clients[0].sendRequest(scrape);
            serve::Response response;
            // Responses to earlier rank requests may still be in
            // flight on this connection; skip until the scrape id.
            while (clients[0].tryReadResponse(response, 2000) &&
                   response.id != scrape.id) {
            }
            util::require(response.id == scrape.id,
                          "loadgen: metrics scrape timed out");
            std::ofstream out(scrape_out);
            if (!out)
                throw util::IoError("loadgen: cannot write " +
                                    scrape_out);
            out << response.text;
            std::cout << "wrote " << scrape_out << "\n";
        }

        json.writeTo(args.get("json"));
        const bool any_ok = n_ok > 0;
        if (!any_ok)
            std::cerr << "loadgen: no successful responses\n";
        return any_ok ? 0 : 1;
    } catch (const util::Error &e) {
        std::cerr << "loadgen: " << e.what() << "\n";
        return 1;
    }
}
