/**
 * @file
 * pb_serve: open-loop client for the serve workloads. Connects to a
 * running dtrank_serve, sends phases of rank requests at fixed rates,
 * records per-request lateness and latency, checks every response and
 * replays a sampled share of them through an in-process RankEngine
 * (the responses must match bit for bit).
 *
 * Requests are built lazily: a session's partial vector is sampled
 * when its first request is built, targets are sampled by rejection
 * against the owned set, and nothing proportional to
 * sessions x machines is ever materialised. Latency runs from each
 * request's due time (open loop: a late sender counts against the
 * measurement, not for it).
 *
 * Records go to --records as float64 quintuples
 * (phase, due_s, lateness_s, latency_s, status); status 0 ok,
 * 1 error, 2 overloaded, 3 lost, 4 malformed ok-response.
 *
 *   pb_serve --workload warm --port 7411 --dataset scaled:2000 --seed 7 \
 *            --phases fixed:2000:8,r1:4000:1 --records r.bin
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_set>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common.h"
#include "core/mlp_transposition.h"
#include "core/transposition.h"
#include "dataset/columnar_io.h"
#include "experiments/bench_options.h"
#include "serve/client.h"
#include "serve/coalescer.h"
#include "serve/protocol.h"
#include "serve/rank_engine.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/string_utils.h"

using namespace dtrank;
using perfbench::Clock;
using perfbench::JsonObject;
using perfbench::secondsSince;

namespace
{

/** Ids of the traced window's transport pings. */
constexpr std::uint64_t kPingBase = 1ULL << 61;

/** Record statuses beyond the wire's Ok / Error / Overloaded (0..2). */
constexpr int kLost = 3;
constexpr int kMalformed = 4;

/** Load connections: two, so the daemon's IO thread serves more than
 *  one socket, as with any real client population. */
constexpr std::size_t kConnections = 2;
/** Warm sessions shared by the load: four distinct fitted models, so
 *  the coalescer groups by key instead of seeing one key only. */
constexpr std::size_t kWarmSessions = 4;
/** Machines in a partial vector: ten, as in the paper's user who owns
 *  a handful of machines. */
constexpr std::size_t kOwned = 10;
/** Top-k truncation of every ranking: a user asks for a short list. */
constexpr std::uint32_t kTop = 10;
/** Grace for trailing responses after a phase's last due time; an
 *  answer later than this is counted lost. */
constexpr int kDrainMs = 3000;

/**
 * The load connections' client. The daemon's accepted sockets keep
 * Nagle's algorithm on, so a response written while the previous one is
 * unacknowledged waits for the client's ACK. A client that delays its
 * ACKs would let that wait last until its next request carries the ACK,
 * and the load's own send period would then set the measured latency.
 * This client acknowledges every read at once: TCP_QUICKACK is re-armed
 * after each recv because the kernel clears it. serve::BlockingClient
 * does not expose its socket, hence this small copy of its read path.
 */
class QuickAckClient
{
  public:
    explicit QuickAckClient(std::uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            throw util::IoError("pb_serve: socket() failed");
        struct sockaddr_in addr;
        std::memset(&addr, 0, sizeof addr);
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_, reinterpret_cast<struct sockaddr *>(&addr),
                      sizeof addr) != 0) {
            ::close(fd_);
            throw util::IoError("pb_serve: cannot connect to port " +
                                std::to_string(port));
        }
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        quickAck();
    }

    ~QuickAckClient() { ::close(fd_); }
    QuickAckClient(const QuickAckClient &) = delete;
    QuickAckClient &operator=(const QuickAckClient &) = delete;

    void
    send(const std::vector<std::uint8_t> &frame)
    {
        std::size_t sent = 0;
        while (sent < frame.size()) {
            const ssize_t n = ::send(fd_, frame.data() + sent,
                                     frame.size() - sent, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                throw util::IoError("pb_serve: send failed");
            sent += static_cast<std::size_t>(n);
        }
    }

    /** One response, or false when none arrived within `timeout_ms`. */
    bool
    tryRead(serve::Response &response, int timeout_ms)
    {
        std::vector<std::uint8_t> payload;
        while (!reader_.next(payload)) {
            struct pollfd pfd{fd_, POLLIN, 0};
            const int ready = ::poll(&pfd, 1, timeout_ms);
            if (ready == 0)
                return false;
            if (ready < 0 && errno == EINTR)
                continue;
            if (ready < 0)
                throw util::IoError("pb_serve: poll failed");
            std::uint8_t chunk[16384];
            const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                throw util::IoError("pb_serve: connection closed by peer");
            quickAck();
            reader_.feed(chunk, static_cast<std::size_t>(n));
        }
        response = serve::decodeResponse(payload.data(), payload.size());
        return true;
    }

  private:
    void
    quickAck()
    {
#if defined(TCP_QUICKACK)
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
#endif
    }

    int fd_ = -1;
    serve::FrameReader reader_;
};

struct Phase
{
    std::string name;
    double rate = 0;
    double seconds = 0;
};

std::vector<Phase>
parsePhases(const std::string &spec)
{
    std::vector<Phase> out;
    for (const std::string &item : util::split(spec, ',')) {
        const std::vector<std::string> f = util::split(item, ':');
        util::require(f.size() == 3, "--phases: expected name:rate:seconds");
        out.push_back({f[0], std::stod(f[1]), std::stod(f[2])});
        util::require(out.back().rate > 0 && out.back().seconds > 0,
                      "--phases: rate and seconds must be > 0");
    }
    util::require(!out.empty(), "--phases: need >= 1 phase");
    return out;
}

/** Builds the request stream of one workload, one request at a time. */
class RequestSource
{
  public:
    RequestSource(const dataset::PerfDatabase &db, bool cold,
                  std::size_t targets,
                  std::vector<experiments::Method> methods,
                  std::uint64_t seed)
        : db_(db), cold_(cold), targets_(targets),
          methods_(std::move(methods)), rng_(seed),
          sessions_(cold ? 0 : kWarmSessions)
    {
        util::require(kOwned + targets_ < db_.machineCount(),
                      "owned + targets must leave room in the universe");
    }

    /** The request with global index `i` (call with increasing i). */
    serve::RankRequest
    next(std::size_t i)
    {
        serve::RankRequest request;
        request.method = methods_[i % methods_.size()];
        request.topK = kTop;
        if (cold_) {
            request.app = static_cast<std::uint32_t>(
                i % db_.benchmarkCount());
            request.predictive = samplePartial(request.app);
            noteSession(request);
        } else {
            std::optional<Session> &s = sessions_[i % sessions_.size()];
            if (!s) { // built on the session's first request only
                s.emplace();
                s->app = static_cast<std::uint32_t>(
                    (i % sessions_.size()) % db_.benchmarkCount());
                s->predictive = samplePartial(s->app);
            }
            request.app = s->app;
            request.predictive = s->predictive;
            noteSession(request);
        }
        if (targets_ != 0)
            request.targets = sampleTargets(request.predictive);
        return request;
    }

    /** Share of requests whose session key was already sent before. */
    double
    repeatShare() const
    {
        return built_ ? static_cast<double>(repeats_) /
                            static_cast<double>(built_)
                      : 0.0;
    }

  private:
    struct Session
    {
        std::uint32_t app = 0;
        std::vector<std::pair<std::uint32_t, double>> predictive;
    };

    std::vector<std::pair<std::uint32_t, double>>
    samplePartial(std::uint32_t app)
    {
        std::set<std::uint32_t> owned;
        while (owned.size() < kOwned)
            owned.insert(static_cast<std::uint32_t>(
                rng_.index(db_.machineCount())));
        std::vector<std::pair<std::uint32_t, double>> out;
        for (std::uint32_t m : owned)
            out.emplace_back(m, db_.scores()(app, m));
        return out;
    }

    std::vector<std::uint32_t>
    sampleTargets(const std::vector<std::pair<std::uint32_t, double>> &own)
    {
        std::set<std::uint32_t> picked;
        std::unordered_set<std::uint32_t> owned;
        for (const auto &p : own)
            owned.insert(p.first);
        while (picked.size() < targets_) {
            const auto m = static_cast<std::uint32_t>(
                rng_.index(db_.machineCount()));
            if (owned.count(m) == 0)
                picked.insert(m);
        }
        return {picked.begin(), picked.end()};
    }

    void
    noteSession(const serve::RankRequest &request)
    {
        perfbench::Digest d;
        d.bytes(&request.app, sizeof request.app);
        const auto method = static_cast<std::uint8_t>(request.method);
        d.bytes(&method, 1);
        for (const auto &[m, score] : request.predictive) {
            d.bytes(&m, sizeof m);
            d.f64(score);
        }
        ++built_;
        if (!seen_.insert(d.hex()).second)
            ++repeats_;
    }

    const dataset::PerfDatabase &db_;
    bool cold_;
    std::size_t targets_;
    std::vector<experiments::Method> methods_;
    util::Rng rng_;
    std::vector<std::optional<Session>> sessions_;
    std::unordered_set<std::string> seen_;
    std::size_t built_ = 0, repeats_ = 0;
};

/** Keeps the first exception any wrapped thread body throws. */
class ThreadErrors
{
  public:
    template <typename F>
    auto
    wrap(F body)
    {
        return [this, body]() mutable {
            try {
                body();
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex_);
                if (!first_)
                    first_ = std::current_exception();
            }
        };
    }

    /** Call after joining every wrapped thread. */
    void
    rethrow()
    {
        if (first_)
            std::rethrow_exception(first_);
    }

  private:
    std::mutex mutex_;
    std::exception_ptr first_;
};

struct Record
{
    double lateness = -1, latency = -1;
    int status = kLost;
};

/** Prometheus text -> {"name{labels}": value}. */
std::map<std::string, double>
parseScrape(const std::string &text)
{
    std::map<std::string, double> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const auto space = line.rfind(' ');
        if (space == std::string::npos)
            continue;
        try {
            out[line.substr(0, space)] = std::stod(line.substr(space + 1));
        } catch (const std::exception &) {
        }
    }
    return out;
}

std::map<std::string, double>
scrape(serve::BlockingClient &client, std::uint64_t id)
{
    serve::Request request;
    request.type = serve::MessageType::Metrics;
    request.id = id;
    client.sendRequest(request);
    serve::Response response;
    while (client.tryReadResponse(response, 5000))
        if (response.id == id)
            return parseScrape(response.text);
    throw util::IoError("pb_serve: metrics scrape timed out");
}

bool
sameRanking(const std::vector<serve::RankedMachine> &a,
            const std::vector<serve::RankedMachine> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].machine != b[i].machine ||
            std::memcmp(&a[i].predicted, &b[i].predicted,
                        sizeof(double)) != 0)
            return false;
    return true;
}

/** Structural check of an OK rank response. */
bool
wellFormed(const serve::Response &response, std::size_t expected)
{
    if (response.ranking.size() != expected)
        return false;
    for (std::size_t i = 1; i < response.ranking.size(); ++i)
        if (response.ranking[i - 1].predicted < response.ranking[i].predicted)
            return false;
    return true;
}

std::vector<experiments::Method>
parseMethods(const std::string &spec)
{
    std::vector<experiments::Method> out;
    for (const std::string &name : util::split(spec, ',')) {
        if (name == "nn")
            out.push_back(experiments::Method::NnT);
        else if (name == "mlp")
            out.push_back(experiments::Method::MlpT);
        else
            throw util::InvalidArgument("--methods: nn or mlp, got " + name);
    }
    util::require(!out.empty(), "--methods: need >= 1 method");
    return out;
}

/** Times a call in seconds. */
template <typename F>
double
timed(F &&f)
{
    const auto t0 = Clock::now();
    f();
    return secondsSince(t0);
}

} // namespace

int
main(int argc, char **argv)
{
    util::ArgParser args("pb_serve");
    args.addOption("port", "daemon TCP port", "0");
    args.addOption("workload", "warm | cold", "warm");
    args.addOption("dataset", "--dataset spec the daemon loaded", "");
    args.addOption("db", "database file the daemon loaded", "");
    args.addOption("seed",
                   "request-sampling seed; also the dataset seed when "
                   "--dataset names none (pass the daemon the same --seed)",
                   "1");
    args.addOption("phases", "name:rate:seconds,...", "fixed:1000:2");
    args.addOption("targets", "targets per request (0 = universe)", "64");
    args.addOption("methods", "round-robin mix of nn,mlp", "mlp");
    args.addOption("check-every", "replay every k-th ok response", "64");
    args.addOption("check-max", "most responses replayed", "256");
    args.addOption("records", "binary per-request records path", "");
    args.addOption("summary", "summary JSON path", "");
    args.addOption("trace", "1 = measure per-layer costs", "0");
    if (!args.parse(argc, argv))
        return 0;

    try {
        const bool cold = args.get("workload") == "cold";
        util::require(cold || args.get("workload") == "warm",
                      "--workload must be warm or cold");
        const bool trace = args.getLong("trace") != 0;
        const auto port = static_cast<std::uint16_t>(args.getLong("port"));
        util::require(port != 0, "--port is required");
        const auto seed = static_cast<std::uint64_t>(args.getLong("seed"));

        // The database the daemon serves, for request scores and the
        // in-process replay engine.
        std::optional<linalg::Matrix> characteristics;
        dataset::PerfDatabase db;
        double columnar_open_s = 0;
        if (cold) {
            std::vector<double> opens;
            for (int r = 0; r < (trace ? 3 : 1); ++r) {
                std::optional<dataset::PerfDatabase> loaded;
                opens.push_back(timed([&] {
                    const auto file =
                        dataset::ColumnarDatabase::open(args.get("db"));
                    loaded = file.toDatabase();
                }));
                db = std::move(*loaded);
            }
            columnar_open_s = perfbench::median(opens);
        } else {
            util::ArgParser ds("dataset");
            experiments::addBenchOptions(ds);
            const std::string spec = args.get("dataset");
            const char *ds_argv[] = {"dataset", "--dataset", spec.c_str()};
            ds.parse(3, ds_argv);
            experiments::BenchDataset data =
                experiments::loadDatasetOption(ds, seed);
            db = std::move(data.db);
            characteristics = std::move(data.characteristics);
        }

        const auto targets =
            static_cast<std::size_t>(args.getLong("targets"));
        RequestSource source(db, cold, targets,
                             parseMethods(args.get("methods")), seed);
        const std::size_t universe = db.machineCount() - kOwned;
        const std::size_t expected_size = std::min<std::size_t>(
            kTop, targets == 0 ? universe : targets);

        std::vector<std::unique_ptr<QuickAckClient>> clients;
        for (std::size_t c = 0; c < kConnections; ++c)
            clients.push_back(std::make_unique<QuickAckClient>(port));
        serve::BlockingClient control;
        control.connect("127.0.0.1", port);

        const auto check_every =
            static_cast<std::size_t>(std::max(1L, args.getLong("check-every")));
        const auto check_max =
            static_cast<std::size_t>(args.getLong("check-max"));
        std::map<std::size_t, serve::RankRequest> sampled_requests;
        std::map<std::size_t, serve::Response> sampled_responses;
        std::mutex sampled_mutex;
        std::uint64_t next_id = 0;

        // Warm: every session answered once before anything is timed.
        if (!cold) {
            for (std::size_t s = 0; s < kWarmSessions; ++s) {
                serve::Request request;
                request.type = serve::MessageType::Rank;
                request.id = next_id;
                request.rank = source.next(next_id++);
                control.sendRequest(request);
                serve::Response response = control.readResponse();
                util::require(response.status == serve::Status::Ok,
                              "warm-up request failed: " + response.text);
            }
        }

        const std::vector<Phase> phases = parsePhases(args.get("phases"));
        std::vector<double> records_out;
        std::vector<std::vector<std::uint8_t>> fixed_frames;
        std::vector<double> ping_rtt;
        JsonObject phase_scrapes;
        double queue_depth_max = 0;

        for (std::size_t p = 0; p < phases.size(); ++p) {
            const Phase &phase = phases[p];
            const auto total =
                static_cast<std::size_t>(phase.rate * phase.seconds);
            util::require(total >= 1, "phase covers no request");
            const std::uint64_t first_id = next_id;
            std::vector<std::vector<std::uint8_t>> frames(total);
            for (std::size_t i = 0; i < total; ++i) {
                serve::Request request;
                request.type = serve::MessageType::Rank;
                request.id = next_id;
                request.rank = source.next(next_id);
                if (next_id % check_every == 0 &&
                    sampled_requests.size() < check_max)
                    sampled_requests.emplace(next_id, request.rank);
                ++next_id;
                serve::appendFrame(frames[i], serve::encodeRequest(request));
            }

            const bool measured = phase.name == "fixed";
            std::map<std::string, double> before;
            if (trace && measured)
                before = scrape(control, next_id + 1000000);

            std::vector<Record> records(total);
            const auto period = std::chrono::nanoseconds(
                static_cast<std::int64_t>(1e9 / phase.rate));
            const auto t0 = Clock::now() + std::chrono::milliseconds(20);
            const auto due_of = [&](std::size_t i) {
                return t0 + period * static_cast<std::int64_t>(i);
            };
            const auto deadline =
                due_of(total) + std::chrono::milliseconds(kDrainMs);
            // Traced fixed window: a ping rides on every 50th request's
            // connection; the daemon answers pings on its IO thread, so
            // their round trip is the transport cost a rank request
            // pays outside the daemon's own timer.
            const std::size_t ping_every = trace && measured ? 50 : 0;
            std::vector<std::atomic<std::int64_t>> ping_sent(
                ping_every ? total : 0);
            std::atomic<bool> sampling{trace && measured};
            ThreadErrors errors;
            std::thread sampler;
            if (sampling) {
                sampler = std::thread(errors.wrap([&] {
                    serve::BlockingClient probe;
                    probe.connect("127.0.0.1", port);
                    std::uint64_t id = 1ULL << 62;
                    while (sampling.load()) {
                        const auto m = scrape(probe, id++);
                        const auto it = m.find("dtrank_serve_queue_depth");
                        if (it != m.end())
                            queue_depth_max =
                                std::max(queue_depth_max, it->second);
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(50));
                    }
                }));
            }

            std::vector<std::thread> threads;
            for (std::size_t c = 0; c < kConnections; ++c) {
                threads.emplace_back(errors.wrap([&, c] { // sender
                    for (std::size_t i = c; i < total; i += kConnections) {
                        const auto due = due_of(i);
                        for (;;) {
                            const auto gap = due - Clock::now();
                            if (gap <= std::chrono::nanoseconds(0))
                                break;
                            if (gap > std::chrono::microseconds(150))
                                std::this_thread::sleep_for(
                                    gap - std::chrono::microseconds(100));
                            else
                                std::this_thread::yield();
                        }
                        records[i].lateness =
                            std::chrono::duration<double>(Clock::now() - due)
                                .count();
                        clients[c]->send(frames[i]);
                        if (ping_every != 0 && i % ping_every == 0) {
                            serve::Request ping;
                            ping.type = serve::MessageType::Ping;
                            ping.id = kPingBase + i;
                            std::vector<std::uint8_t> frame;
                            serve::appendFrame(frame,
                                               serve::encodeRequest(ping));
                            ping_sent[i] = Clock::now()
                                               .time_since_epoch()
                                               .count();
                            clients[c]->send(frame);
                        }
                    }
                }));
                threads.emplace_back(errors.wrap([&, c] { // receiver
                    const std::size_t expected =
                        total / kConnections +
                        (c < total % kConnections ? 1 : 0);
                    std::size_t received = 0;
                    serve::Response response;
                    while (received < expected && Clock::now() < deadline) {
                        if (!clients[c]->tryRead(response, 50))
                            continue;
                        const auto now = Clock::now();
                        if (response.type == serve::MessageType::Ping &&
                            response.id >= kPingBase &&
                            response.id - kPingBase < ping_sent.size()) {
                            const Clock::time_point sent{Clock::duration{
                                ping_sent[response.id - kPingBase].load()}};
                            std::lock_guard<std::mutex> lock(sampled_mutex);
                            ping_rtt.push_back(
                                std::chrono::duration<double>(now - sent)
                                    .count());
                            continue;
                        }
                        if (response.id < first_id ||
                            response.id >= first_id + total)
                            continue;
                        const std::size_t i = response.id - first_id;
                        Record &r = records[i];
                        r.latency =
                            std::chrono::duration<double>(now - due_of(i))
                                .count();
                        r.status = static_cast<int>(response.status);
                        if (response.status == serve::Status::Ok &&
                            !wellFormed(response, expected_size))
                            r.status = kMalformed;
                        ++received;
                        if (response.status == serve::Status::Ok &&
                            response.id % check_every == 0) {
                            std::lock_guard<std::mutex> lock(sampled_mutex);
                            sampled_responses[response.id] = response;
                        }
                    }
                }));
            }
            for (std::thread &t : threads)
                t.join();
            sampling = false;
            if (sampler.joinable())
                sampler.join();
            errors.rethrow();

            if (trace && measured) {
                const auto after = scrape(control, next_id + 2000000);
                JsonObject diff;
                for (const auto &[name, value] : after) {
                    const auto it = before.find(name);
                    diff.num(name, value - (it == before.end() ? 0.0
                                                               : it->second));
                }
                phase_scrapes.raw(phase.name, diff.dump());
                fixed_frames = std::move(frames);
            }
            for (std::size_t i = 0; i < total; ++i) {
                const Record &r = records[i];
                records_out.insert(records_out.end(),
                                   {static_cast<double>(p),
                                    std::chrono::duration<double>(
                                        due_of(i) - t0)
                                        .count(),
                                    r.lateness, r.latency,
                                    static_cast<double>(r.status)});
            }
        }

        // ---- bit-exact replay of the sampled responses -----------------
        serve::RankEngine engine(db, characteristics,
                                 serve::RankEngineConfig{});
        std::size_t checked = 0, mismatches = 0;
        std::vector<double> encode_s;
        for (const auto &[id, request] : sampled_requests) {
            const auto it = sampled_responses.find(id);
            if (it == sampled_responses.end())
                continue; // not answered OK; counted by its record
            const serve::RankOutcome outcome = engine.execute(request);
            ++checked;
            if (outcome.status != serve::Status::Ok ||
                !sameRanking(outcome.ranking, it->second.ranking))
                ++mismatches;
            if (trace) {
                serve::Response response = it->second;
                encode_s.push_back(
                    timed([&] { (void)serve::encodeResponse(response); }));
            }
        }

        JsonObject summary;
        summary.raw("host", perfbench::hostContextJson())
            .num("requests", static_cast<double>(next_id))
            .num("checked", static_cast<double>(checked))
            .num("mismatches", static_cast<double>(mismatches))
            .num("session_repeat_share", source.repeatShare());

        if (trace) {
            JsonObject layers;
            if (!cold) {
                // Decode cost over the fixed phase's frames.
                std::size_t decoded = 0;
                const double decode_s = timed([&] {
                    for (const auto &frame : fixed_frames) {
                        (void)serve::decodeRequest(frame.data() + 4,
                                                   frame.size() - 4);
                        ++decoded;
                    }
                });
                layers.num("serve.protocol.decode_us",
                           decoded ? decode_s * 1e6 /
                                         static_cast<double>(decoded)
                                   : 0.0)
                    .num("serve.protocol.encode_us",
                         encode_s.empty() ? 0.0
                                          : perfbench::median(encode_s) * 1e6);
                // executeBatch at the daemon's mean batch size, measured
                // by the Python side from the scrape and passed back in.
                layers.raw("scrape", phase_scrapes.dump());
                double ping_sum = 0;
                for (double r : ping_rtt)
                    ping_sum += r;
                layers.num("serve.transport_ping_ms",
                           ping_rtt.empty()
                               ? 0.0
                               : ping_sum * 1e3 /
                                     static_cast<double>(ping_rtt.size()))
                    .num("transport_pings", static_cast<double>(ping_rtt.size()));
                layers.num("serve.coalescer.queue_depth_max",
                           queue_depth_max);
                std::map<std::size_t, std::vector<double>> by_size;
                for (std::size_t b : {1u, 2u, 4u, 8u, 16u, 32u}) {
                    std::vector<serve::RankRequest> batch;
                    for (std::size_t i = 0; i < b; ++i)
                        batch.push_back(source.next(i * kWarmSessions));
                    (void)engine.executeBatch(batch);
                    for (int rep = 0; rep < 50; ++rep)
                        by_size[b].push_back(
                            timed([&] { (void)engine.executeBatch(batch); }));
                }
                JsonObject batches;
                for (auto &[b, v] : by_size)
                    batches.num(std::to_string(b), perfbench::median(v) * 1e6);
                layers.raw("batch_us_by_size", batches.dump());

                // The batch hold a lone MLP^T request waits out: a
                // coalescer with the daemon's default configuration,
                // one keyed item, nextBatch() timed.
                serve::Coalescer<int> coalescer(serve::CoalescerConfig{},
                                                nullptr);
                std::vector<double> hold_s;
                for (int rep = 0; rep < 20; ++rep) {
                    coalescer.submit(1, rep);
                    hold_s.push_back(
                        timed([&] { (void)coalescer.nextBatch(); }));
                }
                layers.num("serve.coalescer.hold_us",
                           perfbench::median(hold_s) * 1e6);
            } else {
                // Cold: one fresh session per probe, in-process.
                util::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
                std::vector<double> sel, nnt, loo, fit, pred, exec_nn,
                    exec_mlp;
                experiments::MethodSuiteConfig suite;
                // Selections stay alive across probes, as the engine's
                // universe cache keeps them, so every probe pays for
                // fresh memory the way a cold request does.
                std::vector<dataset::PerfDatabase> retained;
                for (int probe = 0; probe < 6; ++probe) {
                    const auto app = static_cast<std::size_t>(
                        probe % static_cast<int>(db.benchmarkCount()));
                    std::vector<std::size_t> mine =
                        rng.sampleWithoutReplacement(db.machineCount(),
                                                     kOwned);
                    std::sort(mine.begin(), mine.end());
                    std::vector<std::size_t> rest;
                    rest.reserve(db.machineCount() - kOwned);
                    for (std::size_t m = 0, k = 0; m < db.machineCount();
                         ++m) {
                        if (k < mine.size() && mine[k] == m)
                            ++k;
                        else
                            rest.push_back(m);
                    }
                    std::optional<dataset::PerfDatabase> pred_db, target_db;
                    sel.push_back(timed([&] {
                        target_db = db.selectMachines(rest);
                        pred_db = db.selectMachines(mine);
                    }));
                    retained.push_back(*target_db);
                    nnt.push_back(timed([&] {
                        (void)experiments::predictTask(
                            experiments::Method::NnT, suite, *pred_db,
                            *target_db, app,
                            experiments::taskMlpSeed(suite, 0, app), nullptr,
                            nullptr, nullptr);
                    }));
                    core::MlpTranspositionConfig cfg = suite.mlp;
                    cfg.mlp.seed = experiments::taskMlpSeed(suite, 0, app);
                    core::MlpTransposition model(cfg);
                    std::optional<core::TranspositionProblem> problem;
                    loo.push_back(timed([&] {
                        problem = core::makeLeaveOneOutProblem(
                            *pred_db, *target_db, app);
                    }));
                    fit.push_back(timed([&] { model.fit(*problem); }));
                    pred.push_back(timed([&] {
                        (void)model.predictColumns(problem->targetBenchScores);
                    }));
                    for (experiments::Method m :
                         {experiments::Method::NnT,
                          experiments::Method::MlpT}) {
                        serve::RankRequest request;
                        request.method = m;
                        request.app = static_cast<std::uint32_t>(app);
                        request.topK = kTop;
                        for (std::size_t x : rng.sampleWithoutReplacement(
                                 db.machineCount(), kOwned))
                            request.predictive.emplace_back(
                                static_cast<std::uint32_t>(x),
                                db.scores()(app, x));
                        std::sort(request.predictive.begin(),
                                  request.predictive.end());
                        (m == experiments::Method::NnT ? exec_nn : exec_mlp)
                            .push_back(timed(
                                [&] { (void)engine.execute(request); }));
                    }
                }
                const double sel_ms = perfbench::median(sel) * 1e3;
                const double nnt_ms = perfbench::median(nnt) * 1e3;
                const double loo_ms = perfbench::median(loo) * 1e3;
                const double fit_ms = perfbench::median(fit) * 1e3;
                const double pred_ms = perfbench::median(pred) * 1e3;
                const double nn_ms = perfbench::median(exec_nn) * 1e3;
                const double mlp_ms = perfbench::median(exec_mlp) * 1e3;
                layers.num("dataset.columnar_open_ms", columnar_open_s * 1e3)
                    .num("dataset.select_machines_ms", sel_ms)
                    .num("core.nnt_predict_ms", nnt_ms)
                    .num("core.loo_problem_ms", loo_ms)
                    .num("core.mlpt_fit_ms", fit_ms)
                    .num("core.mlpt_predict_ms", pred_ms)
                    .num("serve.rank_engine.cold_execute_ms.nn", nn_ms)
                    .num("serve.rank_engine.cold_execute_ms.mlp", mlp_ms)
                    .num("coverage.nn", (sel_ms + nnt_ms) / nn_ms)
                    .num("coverage.mlp",
                         (sel_ms + loo_ms + fit_ms + pred_ms) / mlp_ms);
            }
            summary.raw("layers", layers.dump());
        }

        if (!args.get("records").empty()) {
            std::string bytes(records_out.size() * sizeof(double), '\0');
            std::memcpy(bytes.data(), records_out.data(), bytes.size());
            perfbench::writeFile(args.get("records"), bytes);
        }
        const std::string text = summary.dump() + "\n";
        if (args.get("summary").empty())
            std::cout << text;
        else
            perfbench::writeFile(args.get("summary"), text);
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "pb_serve: " << e.what() << "\n";
        return 1;
    }
}
