#include "smilab/serve/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <istream>
#include <list>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <thread>

namespace smilab::serve {

std::int64_t serve_stream(SweepService& service, std::istream& in,
                          std::ostream& out) {
  std::int64_t handled = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    out << service.serve_line(line) << '\n';
    out.flush();
    ++handled;
  }
  return handled;
}

namespace {

/// Fill a sockaddr_un for `path` ('@' prefix = abstract namespace).
/// Returns the address length to pass to bind/connect, or 0 if the path is
/// too long.
socklen_t make_unix_addr(const std::string& path, sockaddr_un* addr) {
  std::memset(addr, 0, sizeof *addr);
  addr->sun_family = AF_UNIX;
  if (path.size() >= sizeof addr->sun_path) return 0;
  if (!path.empty() && path.front() == '@') {
    // Abstract namespace: leading NUL, no terminator in the length.
    std::memcpy(addr->sun_path + 1, path.data() + 1, path.size() - 1);
    return static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                  path.size());
  }
  std::memcpy(addr->sun_path, path.data(), path.size());
  return static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                path.size() + 1);
}

void write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // peer gone; the connection loop will notice on next recv
    }
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

struct SocketServer::Impl {
  Impl(SweepService& svc, std::string p) : service(svc), path(std::move(p)) {}

  SweepService& service;
  std::string path;  // guarded_by(init): set in the ctor, read-only after
  // The fd value is set before start() and stays stable while threads run;
  // the single stop() winner (gated by `stopping`) shuts it down to unblock
  // accept() and only closes it after joining every thread.
  // smilint: allow(guarded-by) reason=set before start(); single stop() winner closes after joins
  int listen_fd = -1;
  // smilint: allow(guarded-by) reason=start()/stop() lifecycle; joined by the single stop() winner
  std::thread accept_thread;
  std::atomic<bool> stopping{false};
  std::atomic<std::int64_t> accepted{0};

  /// One accepted socket and the thread serving it. `done` is set, under
  /// conn_mu, by the handler just before it closes `fd`: from then on
  /// stop() must not touch the fd number, and the thread is ready to join.
  struct Connection {
    int fd = -1;
    bool done = false;
    std::thread handler;
  };

  std::mutex conn_mu;
  // List nodes stay put, so a handler may hold a reference to its entry.
  // guarded_by(conn_mu) accepted connections not yet joined
  std::list<Connection> conns;

  void accept_loop() {
    while (!stopping.load(std::memory_order_acquire)) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // listen fd shut down (stop()) or fatal
      }
      accepted.fetch_add(1, std::memory_order_relaxed);
      const std::lock_guard<std::mutex> lock{conn_mu};
      if (stopping.load(std::memory_order_acquire)) {
        ::close(fd);
        break;
      }
      // Join the handlers that have finished, so threads (and their
      // stacks) held stay bounded by the open connections.
      for (auto it = conns.begin(); it != conns.end();) {
        if (!it->done) {
          ++it;
          continue;
        }
        it->handler.join();
        it = conns.erase(it);
      }
      Connection& conn = conns.emplace_back();
      conn.fd = fd;
      conn.handler = std::thread{[this, &conn] { serve_connection(conn); }};
    }
  }

  void serve_connection(Connection& conn) {
    const int fd = conn.fd;  // written before this thread started
    connection_loop(fd);
    {
      const std::lock_guard<std::mutex> lock{conn_mu};
      conn.done = true;
    }
    ::close(fd);
  }

  void connection_loop(int fd) {
    std::string pending;
    char buf[4096];
    bool too_long = false;
    while (!too_long) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;  // EOF, error, or shutdown via stop()
      pending.append(buf, static_cast<std::size_t>(n));
      std::size_t start = 0;
      while (true) {
        const std::size_t nl = pending.find('\n', start);
        if (nl == std::string::npos) break;
        if (nl - start > kMaxRequestLine) break;
        std::string line = pending.substr(start, nl - start);
        start = nl + 1;
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line.empty()) continue;
        std::string response = service.serve_line(line);
        response.push_back('\n');
        write_all(fd, response);
      }
      pending.erase(0, start);
      too_long = pending.size() > kMaxRequestLine;
    }
    if (too_long) {
      write_all(fd, service.error_line("request line longer than " +
                                       std::to_string(kMaxRequestLine) +
                                       " bytes") +
                        '\n');
    }
  }
};

SocketServer::SocketServer(SweepService& service, const std::string& path)
    : impl_(std::make_unique<Impl>(service, path)) {
  sockaddr_un addr;
  const socklen_t len = make_unix_addr(path, &addr);
  if (len == 0) {
    throw std::runtime_error("serve: socket path too long: " + path);
  }
  impl_->listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (impl_->listen_fd < 0) {
    throw std::runtime_error("serve: socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  if (path.front() != '@') ::unlink(path.c_str());  // clear a stale socket
  if (::bind(impl_->listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             len) != 0 ||
      ::listen(impl_->listen_fd, 128) != 0) {
    const std::string why = std::strerror(errno);
    ::close(impl_->listen_fd);
    impl_->listen_fd = -1;
    throw std::runtime_error("serve: cannot listen on '" + path +
                             "': " + why);
  }
}

SocketServer::~SocketServer() { stop(); }

void SocketServer::start() {
  impl_->accept_thread = std::thread{[this] { impl_->accept_loop(); }};
}

void SocketServer::stop() {
  Impl& im = *impl_;
  if (im.stopping.exchange(true, std::memory_order_acq_rel)) {
    return;  // already stopped
  }
  if (im.listen_fd >= 0) {
    ::shutdown(im.listen_fd, SHUT_RDWR);  // unblocks accept()
  }
  if (im.accept_thread.joinable()) im.accept_thread.join();
  std::list<Impl::Connection> conns;
  {
    const std::lock_guard<std::mutex> lock{im.conn_mu};
    for (const Impl::Connection& c : im.conns) {
      // Unblocks recv(); the handler closes the fd. A done handler may
      // already have closed it, and the number may be reused.
      if (!c.done) ::shutdown(c.fd, SHUT_RDWR);
    }
    conns.swap(im.conns);  // nodes move intact: handlers' references hold
  }
  for (Impl::Connection& c : conns) c.handler.join();
  if (im.listen_fd >= 0) {
    ::close(im.listen_fd);
    im.listen_fd = -1;
  }
  if (!im.path.empty() && im.path.front() != '@') ::unlink(im.path.c_str());
}

const std::string& SocketServer::path() const { return impl_->path; }

std::int64_t SocketServer::connections_accepted() const {
  return impl_->accepted.load(std::memory_order_relaxed);
}

}  // namespace smilab::serve
