// Serve front ends: a stream pump (--stdin-batch, tests) and a Unix-domain
// socket server, both newline-delimited JSON over one SweepService.
//
// Protocol (both transports): one request per line, one response line per
// request, in request order per connection. Responses to different
// connections interleave freely — each connection gets its own handler
// thread, and SweepService::serve_line is fully thread-safe. A socket
// connection whose request line grows past kMaxRequestLine gets one error
// line and is closed.
//
// The socket server binds AF_UNIX. A path starting with '@' selects the
// Linux abstract namespace ('\0'-prefixed, auto-reclaimed on close — no
// stale socket files for tests and CI); any other path is a filesystem
// socket, unlinked on startup and shutdown.
//
// No wall-clock anywhere here (smilint D1): timeouts and latency belong to
// the client side (bench/serve_loadgen).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>

#include "smilab/serve/service.h"

namespace smilab::serve {

/// Longest request line a socket connection may send, in bytes without
/// the newline. Valid requests are a few hundred bytes; the cap bounds
/// what one client can make the daemon buffer.
inline constexpr std::size_t kMaxRequestLine = std::size_t{1} << 20;

/// Pump requests from `in` to `out` until EOF: one serve_line per input
/// line (blank lines skipped), responses flushed per line. Returns the
/// number of requests handled.
std::int64_t serve_stream(SweepService& service, std::istream& in,
                          std::ostream& out);

/// Newline-delimited JSON over a Unix-domain socket.
class SocketServer {
 public:
  /// Binds and listens immediately; accepting starts on start().
  /// Throws std::runtime_error if the socket cannot be bound.
  SocketServer(SweepService& service, const std::string& path);
  ~SocketServer();
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Launch the accept loop (one thread) — handler threads spawn per
  /// connection, and the accept loop joins finished ones, so threads and
  /// fds held stay bounded by the open connections.
  void start();

  /// Stop accepting, unblock and join every handler, close all fds.
  /// Idempotent; also run by the destructor.
  void stop();

  [[nodiscard]] const std::string& path() const;

  /// Connections accepted so far (diagnostics).
  [[nodiscard]] std::int64_t connections_accepted() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace smilab::serve
