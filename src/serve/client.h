/**
 * @file
 * Minimal blocking TCP client for the dtrank_serve protocol, shared by
 * the load generator, the serve bench and the protocol robustness
 * tests. One request/response round trip is connect() + sendRequest()
 * + readResponse(); sendBytes() exists so tests can write deliberately
 * malformed frames.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "serve/protocol.h"

namespace dtrank::serve
{

/** Blocking protocol client. Not thread safe; one per thread. */
class BlockingClient
{
  public:
    BlockingClient() = default;

    /** Closes the connection. */
    ~BlockingClient();

    BlockingClient(const BlockingClient &) = delete;
    BlockingClient &operator=(const BlockingClient &) = delete;

    BlockingClient(BlockingClient &&other) noexcept;
    BlockingClient &operator=(BlockingClient &&other) noexcept;

    /**
     * Connects to host:port (IPv4 dotted quad or "localhost").
     * @throws util::IoError when the connection cannot be established
     *         (or on a platform without POSIX sockets).
     */
    void connect(const std::string &host, std::uint16_t port);

    /** Encodes, frames and writes one request. @throws util::IoError */
    void sendRequest(const Request &request);

    /** Writes raw bytes verbatim (malformed-frame tests). */
    void sendBytes(const void *data, std::size_t size);

    /**
     * Blocks until one complete response frame arrives and decodes it.
     * @throws util::IoError on EOF or a socket error, ProtocolError on
     *         an undecodable frame.
     */
    Response readResponse();

    /**
     * readResponse() with a poll timeout. Returns false when no
     * complete frame arrived within `timeout_ms`.
     */
    bool tryReadResponse(Response &response, int timeout_ms);

    /** Half-closes the write side (mid-request disconnect tests). */
    void shutdownWrite();

    void close();

  private:
    int fd_ = -1;
    FrameReader reader_;
};

} // namespace dtrank::serve
