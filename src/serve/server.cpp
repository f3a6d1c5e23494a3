#include "serve/server.h"

#include <cerrno>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "util/clock.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/thread_pool.h"

#if defined(__unix__) || defined(__APPLE__)
#define DTRANK_HAVE_SOCKETS 1
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#else
#define DTRANK_HAVE_SOCKETS 0
#endif

namespace dtrank::serve
{

namespace
{

#if DTRANK_HAVE_SOCKETS

#if !defined(MSG_NOSIGNAL)
#define MSG_NOSIGNAL 0
#endif

/**
 * Platforms without MSG_NOSIGNAL (macOS) deliver SIGPIPE when a send
 * hits a peer-closed socket; suppress it per socket so a client that
 * disconnects mid-response cannot kill the daemon.
 */
void
disableSigpipe(int fd)
{
#if defined(SO_NOSIGPIPE)
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof one);
#else
    (void)fd;
#endif
}

/** Endpoint label of a rank method (metric names). */
const char *
endpointName(experiments::Method method)
{
    switch (method) {
      case experiments::Method::NnT:
        return "rank_nn_t";
      case experiments::Method::MlpT:
        return "rank_mlp_t";
      case experiments::Method::GaKnn:
        return "rank_ga_knn";
      case experiments::Method::SplT:
        return "rank_spl_t";
      case experiments::Method::MultiNnT:
        return "rank_multi_nn_t";
      case experiments::Method::DeepT:
        return "rank_deep_t";
    }
    return "rank_unknown";
}

/** Serve-side metric handles, registered once (cold path). */
struct ServeMetrics
{
    explicit ServeMetrics(obs::MetricsRegistry &registry)
        : connections(registry.counter(
              "dtrank_serve_connections_total",
              "TCP connections accepted by dtrank_serve")),
          protocolErrors(registry.counter(
              "dtrank_serve_protocol_errors_total",
              "Malformed or oversized frames received")),
          shed(registry.counter(
              "dtrank_serve_shed_total",
              "Requests shed by admission control (OVERLOADED)")),
          queueDepth(registry.gauge(
              "dtrank_serve_queue_depth",
              "Rank requests currently queued for workers")),
          batchSize(registry.histogram(
              "dtrank_serve_batch_size",
              {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0},
              "Requests per coalesced worker batch")),
          okResponses(registry.counter(
              "dtrank_serve_responses_total{status=\"ok\"}",
              "Responses by status")),
          errorResponses(registry.counter(
              "dtrank_serve_responses_total{status=\"error\"}",
              "Responses by status")),
          overloadedResponses(registry.counter(
              "dtrank_serve_responses_total{status=\"overloaded\"}",
              "Responses by status"))
    {
        latency.emplace("ping", &registry.histogram(
                                    "dtrank_serve_request_seconds"
                                    "{endpoint=\"ping\"}",
                                    obs::defaultLatencyBounds(),
                                    "Request latency by endpoint"));
        latency.emplace("metrics",
                        &registry.histogram(
                            "dtrank_serve_request_seconds"
                            "{endpoint=\"metrics\"}",
                            obs::defaultLatencyBounds(),
                            "Request latency by endpoint"));
        for (experiments::Method method :
             {experiments::Method::NnT, experiments::Method::MlpT,
              experiments::Method::GaKnn, experiments::Method::SplT,
              experiments::Method::MultiNnT,
              experiments::Method::DeepT}) {
            const std::string name = endpointName(method);
            latency.emplace(
                name, &registry.histogram(
                          "dtrank_serve_request_seconds{endpoint=\"" +
                              name + "\"}",
                          obs::defaultLatencyBounds(),
                          "Request latency by endpoint"));
        }
    }

    obs::Counter &connections;
    obs::Counter &protocolErrors;
    obs::Counter &shed;
    obs::Gauge &queueDepth;
    obs::Histogram &batchSize;
    obs::Counter &okResponses;
    obs::Counter &errorResponses;
    obs::Counter &overloadedResponses;
    std::unordered_map<std::string, obs::Histogram *> latency;
};

ServeMetrics &
serveMetrics()
{
    // Registered once in the internally synchronized global registry:
    // dtrank-analyze-ignore(no-unguarded-static)
    static ServeMetrics metrics(obs::MetricsRegistry::global());
    return metrics;
}

/** One accepted client connection. */
struct Connection
{
    int fd = -1;
    FrameReader reader;
    util::Mutex writeMutex;
    std::atomic<bool> alive{true};

    // The fd is released only when the last shared_ptr owner drops
    // the connection: a worker mid-send keeps the fd number reserved,
    // so accept() cannot recycle it into another client while frame
    // bytes are still being written.
    ~Connection()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

/** Best-effort request id of an undecodable payload (type + u64 id). */
std::uint64_t
peekRequestId(const std::vector<std::uint8_t> &payload)
{
    if (payload.size() < 9)
        return 0;
    std::uint64_t id = 0;
    for (int i = 0; i < 8; ++i)
        id |= static_cast<std::uint64_t>(
                  payload[1 + static_cast<std::size_t>(i)])
              << (8 * i);
    return id;
}

void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/**
 * Responses are small frames written as soon as they are ready. With
 * Nagle's algorithm on, a response that follows an unacknowledged one
 * waits for the client's (possibly delayed) ACK, so send every
 * segment at once — the client side does the same.
 */
void
disableNagle(int fd)
{
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

#endif // DTRANK_HAVE_SOCKETS

} // namespace

#if DTRANK_HAVE_SOCKETS

/** One queued rank request. */
struct ServerWorkItem
{
    std::shared_ptr<Connection> conn;
    std::uint64_t id = 0;
    RankRequest request;
    util::MonotonicClock::time_point start;
};

struct Server::Impl
{
    /**
     * Stall budget of responses sent inline from the IO thread
     * (ping/metrics/protocol errors): ~500ms bounds how long one
     * non-draining client can hold up the shared poll loop, while
     * still riding out a momentarily full socket buffer on a healthy
     * one. Worker sends keep the default ~5s budget.
     */
    static constexpr int kIoStalls = 5;

    Impl(RankEngine &rank_engine, const ServerConfig &server_config)
        : engine(rank_engine), config(server_config),
          pool(server_config.workers + 1), group(pool),
          coalescer(
              server_config.coalescer,
              [this](ServerWorkItem &&item) { shedItem(std::move(item)); },
              CoalescerMetrics{&serveMetrics().queueDepth,
                               &serveMetrics().shed,
                               &serveMetrics().batchSize})
    {
    }

    RankEngine &engine;
    ServerConfig config;
    util::ThreadPool pool;
    util::TaskGroup group;
    Coalescer<ServerWorkItem> coalescer;

    int listenFd = -1;
    std::uint16_t boundPort = 0;
    std::atomic<bool> stopRequested{false};
    std::unordered_map<int, std::shared_ptr<Connection>> connections;

    /**
     * Writes one frame; on a slow client, waits for writability up to
     * `max_stalls` 100ms intervals (~5s by default) before declaring
     * the connection dead. Never blocks forever, so no worker can
     * wedge on an unresponsive peer. Callers on the IO thread must
     * pass a small budget (kIoStalls for inline responses, 0 for
     * sheds) so one slow peer cannot freeze the poll loop that every
     * other connection shares.
     */
    void
    sendFrame(Connection &conn, const std::vector<std::uint8_t> &payload,
              int max_stalls = 50)
    {
        std::vector<std::uint8_t> frame;
        frame.reserve(payload.size() + 4);
        appendFrame(frame, payload);

        util::LockGuard lock(conn.writeMutex);
        std::size_t sent = 0;
        int stalls = 0;
        while (sent < frame.size()) {
            if (!conn.alive.load(std::memory_order_relaxed))
                return;
            const ssize_t n =
                ::send(conn.fd, frame.data() + sent, frame.size() - sent,
                       MSG_NOSIGNAL);
            if (n > 0) {
                sent += static_cast<std::size_t>(n);
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                if (++stalls > max_stalls) {
                    conn.alive.store(false, std::memory_order_relaxed);
                    return;
                }
                struct pollfd pfd{conn.fd, POLLOUT, 0};
                ::poll(&pfd, 1, 100);
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            conn.alive.store(false, std::memory_order_relaxed);
            return;
        }
    }

    void
    sendResponse(Connection &conn, const Response &response,
                 int max_stalls = 50)
    {
        sendFrame(conn, encodeResponse(response), max_stalls);
        switch (response.status) {
          case Status::Ok:
            serveMetrics().okResponses.inc();
            break;
          case Status::Error:
            serveMetrics().errorResponses.inc();
            break;
          case Status::Overloaded:
            serveMetrics().overloadedResponses.inc();
            break;
        }
    }

    void
    shedItem(ServerWorkItem &&item)
    {
        Response response;
        response.type = MessageType::Rank;
        response.id = item.id;
        response.status = Status::Overloaded;
        response.text = "overloaded: request shed by admission control";
        // Sheds run inline in submit(), i.e. on the IO thread: the
        // response is best-effort (max_stalls 0) so a slow victim
        // cannot stall the poll loop exactly when the server is
        // overloaded. A victim whose socket buffer is full is not
        // draining responses anyway; it is marked dead instead.
        sendResponse(*item.conn, response, /*max_stalls=*/0);
    }

    void
    closeConnection(int fd)
    {
        auto it = connections.find(fd);
        if (it == connections.end())
            return;
        it->second->alive.store(false, std::memory_order_relaxed);
        // shutdown() unblocks any worker mid-send (send fails, poll
        // reports POLLHUP) but keeps the fd number reserved; closing
        // here would let accept() recycle it while a worker still
        // writes frame bytes, corrupting another client's stream. The
        // last shared_ptr owner closes the fd in ~Connection.
        ::shutdown(fd, SHUT_RDWR);
        connections.erase(it);
    }

    /** Handles one complete request payload from `conn`.
     *  @return false when the connection must be closed. */
    bool
    handlePayload(const std::shared_ptr<Connection> &conn,
                  const std::vector<std::uint8_t> &payload)
    {
        const auto start = util::monotonicNow();
        Request request;
        try {
            request = decodeRequest(payload.data(), payload.size());
        } catch (const ProtocolError &e) {
            serveMetrics().protocolErrors.inc();
            Response response;
            response.type = MessageType::Ping;
            response.id = peekRequestId(payload);
            response.status = Status::Error;
            response.text = e.what();
            sendResponse(*conn, response, kIoStalls);
            return false;
        }

        switch (request.type) {
          case MessageType::Ping: {
            Response response;
            response.type = MessageType::Ping;
            response.id = request.id;
            sendResponse(*conn, response, kIoStalls);
            serveMetrics().latency.at("ping")->observe(
                util::secondsSince(start));
            return true;
          }
          case MessageType::Metrics: {
            Response response;
            response.type = MessageType::Metrics;
            response.id = request.id;
            response.text =
                obs::MetricsRegistry::global().scrapePrometheus();
            sendResponse(*conn, response, kIoStalls);
            serveMetrics().latency.at("metrics")->observe(
                util::secondsSince(start));
            return true;
          }
          case MessageType::Rank: {
            ServerWorkItem item;
            item.conn = conn;
            item.id = request.id;
            item.request = std::move(request.rank);
            item.start = start;
            const std::uint64_t key = engine.batchKey(item.request);
            if (!coalescer.submit(key, std::move(item))) {
                Response response;
                response.type = MessageType::Rank;
                response.id = request.id;
                response.status = Status::Overloaded;
                response.text = "overloaded: server is shutting down";
                sendResponse(*conn, response, kIoStalls);
            }
            return true;
          }
        }
        return true;
    }

    /** Drains readable bytes; false when the connection must close. */
    bool
    readConnection(const std::shared_ptr<Connection> &conn)
    {
        std::uint8_t chunk[16384];
        for (;;) {
            const ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, 0);
            if (n == 0)
                return false; // peer closed
            if (n < 0) {
                if (errno == EAGAIN || errno == EWOULDBLOCK)
                    break;
                if (errno == EINTR)
                    continue;
                return false;
            }
            try {
                conn->reader.feed(chunk, static_cast<std::size_t>(n));
                std::vector<std::uint8_t> payload;
                while (conn->reader.next(payload)) {
                    if (!handlePayload(conn, payload))
                        return false;
                }
            } catch (const ProtocolError &) {
                // Oversized/zero length prefix: the stream cannot be
                // re-synchronized, so close.
                serveMetrics().protocolErrors.inc();
                return false;
            }
        }
        return conn->alive.load(std::memory_order_relaxed);
    }

    void
    ioLoop()
    {
        while (!stopRequested.load(std::memory_order_relaxed)) {
            std::vector<struct pollfd> fds;
            fds.reserve(connections.size() + 1);
            fds.push_back({listenFd, POLLIN, 0});
            // Registration order does not affect behaviour: every
            // ready fd is serviced within the same poll tick.
            // dtrank-analyze-ignore(no-unordered-iteration)
            for (const auto &[fd, conn] : connections)
                fds.push_back({fd, POLLIN, 0});

            const int ready =
                ::poll(fds.data(),
                       static_cast<nfds_t>(fds.size()), 50);
            if (ready < 0 && errno != EINTR)
                break;
            if (ready <= 0)
                continue;

            if ((fds[0].revents & POLLIN) != 0)
                acceptClients();
            for (std::size_t i = 1; i < fds.size(); ++i) {
                const short events = fds[i].revents;
                if (events == 0)
                    continue;
                auto it = connections.find(fds[i].fd);
                if (it == connections.end())
                    continue;
                const std::shared_ptr<Connection> conn = it->second;
                if ((events & (POLLERR | POLLHUP | POLLNVAL)) != 0 ||
                    ((events & POLLIN) != 0 && !readConnection(conn)))
                    closeConnection(fds[i].fd);
            }
        }
    }

    void
    acceptClients()
    {
        for (;;) {
            const int fd = ::accept(listenFd, nullptr, nullptr);
            if (fd < 0)
                return; // EAGAIN or transient error: poll again
            setNonBlocking(fd);
            disableNagle(fd);
            disableSigpipe(fd);
            auto conn = std::make_shared<Connection>();
            conn->fd = fd;
            connections.emplace(fd, std::move(conn));
            serveMetrics().connections.inc();
        }
    }

    void
    workerLoop()
    {
        for (;;) {
            std::vector<ServerWorkItem> batch = coalescer.nextBatch();
            if (batch.empty())
                return; // stopped and drained
            std::vector<RankRequest> requests;
            requests.reserve(batch.size());
            for (const ServerWorkItem &item : batch)
                requests.push_back(item.request);
            std::vector<RankOutcome> outcomes =
                engine.executeBatch(requests);
            for (std::size_t i = 0; i < batch.size(); ++i) {
                Response response;
                response.type = MessageType::Rank;
                response.id = batch[i].id;
                response.status = outcomes[i].status;
                if (outcomes[i].status == Status::Ok)
                    response.ranking = std::move(outcomes[i].ranking);
                else
                    response.text = outcomes[i].error;
                sendResponse(*batch[i].conn, response);
                serveMetrics()
                    .latency.at(endpointName(batch[i].request.method))
                    ->observe(util::secondsSince(batch[i].start));
            }
        }
    }
};

Server::Server(RankEngine &engine, ServerConfig config)
    : engine_(engine), config_(config)
{
    util::require(config_.workers >= 1,
                  "Server: needs >= 1 worker");
}

Server::~Server() { stop(); }

void
Server::start()
{
    util::require(impl_ == nullptr, "Server::start: already started");
    auto impl = std::make_unique<Impl>(engine_, config_);

    impl->listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (impl->listenFd < 0)
        throw util::IoError("Server: socket() failed");
    const int one = 1;
    ::setsockopt(impl->listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof one);

    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr =
        htonl(config_.loopbackOnly ? INADDR_LOOPBACK : INADDR_ANY);
    addr.sin_port = htons(config_.port);
    if (::bind(impl->listenFd,
               reinterpret_cast<struct sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(impl->listenFd, 128) != 0) {
        ::close(impl->listenFd);
        throw util::IoError("Server: cannot bind/listen on port " +
                            std::to_string(config_.port));
    }
    socklen_t len = sizeof addr;
    ::getsockname(impl->listenFd,
                  reinterpret_cast<struct sockaddr *>(&addr), &len);
    impl->boundPort = ntohs(addr.sin_port);
    setNonBlocking(impl->listenFd);

    impl_ = std::move(impl);
    running_.store(true);
    impl_->group.run([this] { impl_->ioLoop(); });
    for (std::size_t w = 0; w < config_.workers; ++w)
        impl_->group.run([this] { impl_->workerLoop(); });
    util::inform("dtrank_serve listening on port " +
                 std::to_string(impl_->boundPort));
}

void
Server::stop()
{
    if (impl_ == nullptr)
        return;
    impl_->stopRequested.store(true, std::memory_order_relaxed);
    impl_->coalescer.drainAndShed();
    impl_->group.wait();
    // Shutdown closes every socket; the close order is unobservable.
    // dtrank-analyze-ignore(no-unordered-iteration)
    for (const auto &[fd, conn] : impl_->connections) {
        conn->alive.store(false, std::memory_order_relaxed);
        ::shutdown(fd, SHUT_RDWR);
    }
    impl_->connections.clear(); // ~Connection closes each fd
    if (impl_->listenFd >= 0)
        ::close(impl_->listenFd);
    impl_.reset();
    running_.store(false);
}

std::uint16_t
Server::port() const
{
    util::require(impl_ != nullptr, "Server::port: not started");
    return impl_->boundPort;
}

#else // !DTRANK_HAVE_SOCKETS

struct Server::Impl
{
};

Server::Server(RankEngine &engine, ServerConfig config)
    : engine_(engine), config_(config)
{
}

Server::~Server() = default;

void
Server::start()
{
    throw util::IoError(
        "dtrank_serve requires POSIX sockets on this platform");
}

void
Server::stop()
{
}

std::uint16_t
Server::port() const
{
    throw util::IoError(
        "dtrank_serve requires POSIX sockets on this platform");
}

#endif // DTRANK_HAVE_SOCKETS

} // namespace dtrank::serve
