// serve_client: the serve_mixed load generator. One thread replays an
// open-loop schedule (perfbench/benchlib.py draws it from the seed) over at
// most three connections to a running `smilab serve` daemon, stamping each
// request's send and the arrival of its full response line. A request goes
// out on the connection with the fewest requests outstanding, because the
// daemon answers each connection's requests in order.
//
// Checks made here: every response is ok, its key equals this client's own
// canonical_key, and all responses for one key carry identical result bytes.
// A traced run then measures the in-process layers on the same requests:
// parse_request_line, canonical_key, a cached serve_line, and each distinct
// key's run_experiment_payload, whose bytes must equal the daemon's.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "smilab/serve/request.h"
#include "smilab/serve/service.h"

namespace perfbench {
namespace {

using namespace smilab::serve;

constexpr int kConnections = 3;
constexpr std::int64_t kStallTimeoutNs = 120'000'000'000;  // no reply for 2 min

struct Scheduled {
  std::int64_t offset_ns = 0;
  std::string line;
  ExperimentRequest request;
  std::string key;
};

std::vector<Scheduled> read_schedule(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::invalid_argument("cannot read schedule " + path);
  std::vector<Scheduled> out;
  std::string text;
  while (std::getline(in, text)) {
    if (text.empty()) continue;
    const auto tab = text.find('\t');
    if (tab == std::string::npos) throw std::invalid_argument("bad schedule line");
    Scheduled s;
    s.offset_ns = std::stoll(text.substr(0, tab));
    s.line = text.substr(tab + 1);
    std::string error;
    const auto parsed = parse_request_line(s.line, &error);
    if (!parsed || parsed->op != RequestLine::Op::kExperiment) {
      throw std::invalid_argument("schedule request rejected: " + error);
    }
    s.request = parsed->experiment;
    s.key = key_hex(s.request.canonical_key());
    out.push_back(std::move(s));
  }
  return out;
}

class Connection {
 public:
  explicit Connection(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof addr.sun_path) {
      throw std::invalid_argument("bad socket path");
    }
    std::memcpy(addr.sun_path, path.data(), path.size());
    if (path[0] == '@') addr.sun_path[0] = '\0';  // abstract namespace
    const auto len =
        static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + path.size());
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), len) != 0) {
      ::close(fd_);
      throw std::runtime_error("cannot connect to " + path);
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] int fd() const { return fd_; }

  void send_line(const std::string& line) {
    std::string framed = line + "\n";
    std::size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send failed");
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Read what is available; append complete lines to `lines`. False on EOF.
  bool read_lines(std::vector<std::string>& lines) {
    char buf[65536];
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n <= 0) return false;
    pending_.append(buf, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (auto nl = pending_.find('\n'); nl != std::string::npos;
         nl = pending_.find('\n', start)) {
      lines.push_back(pending_.substr(start, nl - start));
      start = nl + 1;
    }
    pending_.erase(0, start);
    return true;
  }

  /// Blocking round trip (control ops outside the timed stream).
  std::string round_trip(const std::string& line) {
    send_line(line);
    std::vector<std::string> lines;
    while (lines.empty()) {
      if (!read_lines(lines)) throw std::runtime_error("daemon closed the connection");
    }
    return lines.front();
  }

  std::deque<std::size_t> outstanding;

 private:
  int fd_ = -1;
  std::string pending_;
};

/// Samples the host-speed reference every 250 ms on its own thread while
/// the stream runs, so the daemon's CPU time can be scaled like the
/// single-threaded workloads' (see HostIndex). It sends nothing.
class HostSampler {
 public:
  HostSampler() : thread_([this] {
    while (!stop_.load()) {
      samples_.push_back(reference_sample_s());
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
  }) {}
  ~HostSampler() { finish(); }
  HostSampler(const HostSampler&) = delete;
  HostSampler& operator=(const HostSampler&) = delete;

  /// Stops and joins the thread; the samples are safe to read after.
  const std::vector<double>& finish() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return samples_;
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<double> samples_;  // written by thread_ until it is joined
  std::thread thread_;
};

struct Outcome {
  std::int64_t sent_ns = -1;
  std::int64_t recv_ns = -1;
  /// Requests outstanding on its connection when it was sent: the daemon
  /// answers a connection in order, so these are answered first.
  std::int64_t ahead = 0;
  std::string response;
};

/// Raw bytes of the response's "result" member (the envelope's last field).
std::string result_bytes(const std::string& response) {
  const auto pos = response.find(",\"result\":");
  if (pos == std::string::npos || response.empty() || response.back() != '}') {
    return {};
  }
  return response.substr(pos + 10, response.size() - pos - 11);
}

std::string field_text(const std::string& response, const std::string& name) {
  const std::string tag = "\"" + name + "\":";
  const auto pos = response.find(tag);
  if (pos == std::string::npos) return {};
  const auto start = pos + tag.size();
  const auto end = response.find_first_of(",}", start);
  std::string v = response.substr(start, end - start);
  if (v.size() >= 2 && v.front() == '"') v = v.substr(1, v.size() - 2);
  return v;
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::int64_t run_stream(const std::vector<Scheduled>& schedule,
                        std::vector<std::unique_ptr<Connection>>& conns,
                        std::vector<Outcome>& out) {
  std::vector<pollfd> fds;
  for (const auto& c : conns) fds.push_back(pollfd{c->fd(), POLLIN, 0});
  out.assign(schedule.size(), Outcome{});
  const std::int64_t t0 = wall_ns();
  std::size_t next = 0;
  std::size_t done = 0;
  std::int64_t last_progress = t0;
  std::vector<std::string> lines;
  while (done < schedule.size()) {
    std::int64_t now = wall_ns();
    while (next < schedule.size() && t0 + schedule[next].offset_ns <= now) {
      Connection* best = conns.front().get();
      for (const auto& c : conns) {
        if (c->outstanding.size() < best->outstanding.size()) best = c.get();
      }
      best->send_line(schedule[next].line);
      out[next].sent_ns = wall_ns() - t0;
      out[next].ahead = static_cast<std::int64_t>(best->outstanding.size());
      best->outstanding.push_back(next);
      ++next;
      now = wall_ns();
    }
    std::int64_t wait_ns = 50'000'000;
    if (next < schedule.size()) {
      wait_ns = std::min(wait_ns, std::max<std::int64_t>(
                                      0, t0 + schedule[next].offset_ns - now));
    }
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready < 0) throw std::runtime_error("ppoll failed");
    for (std::size_t c = 0; c < fds.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      lines.clear();
      if (!conns[c]->read_lines(lines)) {
        throw std::runtime_error("daemon closed a connection mid-stream");
      }
      const std::int64_t stamp = wall_ns() - t0;
      for (std::string& line : lines) {
        if (conns[c]->outstanding.empty()) {
          throw std::runtime_error("response without a request");
        }
        const std::size_t i = conns[c]->outstanding.front();
        conns[c]->outstanding.pop_front();
        out[i].recv_ns = stamp;
        out[i].response = std::move(line);
        ++done;
        last_progress = wall_ns();
      }
    }
    if (wall_ns() - last_progress > kStallTimeoutNs) {
      throw std::runtime_error("daemon stopped answering");
    }
  }
  return t0;
}

/// In-process layer measurements for the traced run.
void measure_in_process(const std::vector<Scheduled>& schedule,
                        const std::vector<Scheduled>& warmup,
                        const std::map<std::string, std::string>& daemon_bytes,
                        Tracer& tracer, JsonWriter& w) {
  // Fill the calibration and cache-replay memos exactly as the daemon's
  // warm-up did, so solo costs below exclude them.
  {
    const Scope s{tracer, "warmup"};
    for (const Scheduled& req : warmup) (void)run_experiment_payload(req.request);
  }
  std::vector<double> parse_us;
  std::vector<double> key_ns;
  {
    const Scope layer{tracer, "wire.request"};
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      std::string error;
      const auto rid = static_cast<std::int64_t>(i);
      const std::int64_t a = wall_ns();
      std::optional<RequestLine> parsed;
      {
        const Scope s{tracer, "parse_request_line", layer.id(), rid};
        parsed = parse_request_line(schedule[i].line, &error);
      }
      const std::int64_t b = wall_ns();
      std::uint64_t key = 0;
      {
        const Scope s{tracer, "canonical_key", layer.id(), rid};
        key = parsed->experiment.canonical_key();
      }
      const std::int64_t c = wall_ns();
      if (key_hex(key) != schedule[i].key) throw std::runtime_error("unstable key");
      parse_us.push_back(static_cast<double>(b - a) / 1e3);
      key_ns.push_back(static_cast<double>(c - b));
    }
  }
  w.field("parse_us", median_of(parse_us));
  w.field("key_ns", median_of(key_ns));

  // A cached serve_line on an in-process service: parse + key + lookup.
  std::vector<double> hit_us;
  {
    ServiceConfig cfg;
    cfg.workers = 1;
    SweepService service{cfg};
    const std::string& line = schedule.front().line;
    (void)service.serve_line(line);
    const Scope layer{tracer, "serve.inproc"};
    for (int i = 0; i < 2000; ++i) {
      const std::int64_t a = wall_ns();
      {
        const Scope s{tracer, "serve_line", layer.id(), 0};
        (void)service.serve_line(line);
      }
      hit_us.push_back(static_cast<double>(wall_ns() - a) / 1e3);
    }
  }
  w.field("inproc_hit_us", median_of(hit_us));

  // Each distinct key simulated solo; its bytes must equal the daemon's.
  w.begin_array("solo");
  std::set<std::string> seen;
  const Scope layer{tracer, "miss_path"};
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Scheduled& req = schedule[i];
    if (!seen.insert(req.key).second) continue;
    const std::int64_t a = wall_ns();
    std::string payload;
    std::string error;
    try {
      const Scope s{tracer, "run_experiment_payload", layer.id(),
                    static_cast<std::int64_t>(i)};
      payload = run_experiment_payload(req.request);
    } catch (const std::exception& e) {
      error = e.what();
    }
    const double ms = static_cast<double>(wall_ns() - a) / 1e6;
    const auto it = daemon_bytes.find(req.key);
    w.begin_object();
    w.field("key", req.key);
    w.field("kind", to_string(req.request.kind));
    w.field("ms", ms);
    w.field("match", error.empty() && it != daemon_bytes.end() &&
                         it->second == payload);
    w.end_object();
  }
  w.end_array();
}

}  // namespace

int run_serve_client(const Args& args) {
  const std::string socket = args.get("socket", "");
  const bool trace = args.get_int("trace", 0) != 0;
  const std::vector<Scheduled> schedule = read_schedule(args.get("schedule", ""));
  const std::vector<Scheduled> warmup =
      trace ? read_schedule(args.get("warmup", "")) : std::vector<Scheduled>{};
  if (schedule.empty()) throw std::invalid_argument("empty schedule");

  std::vector<std::unique_ptr<Connection>> conns;
  for (int i = 0; i < kConnections; ++i) {
    conns.push_back(std::make_unique<Connection>(socket));
  }
  Tracer tracer{trace};
  const std::string stats_before = conns.front()->round_trip(R"({"op":"stats"})");
  std::vector<Outcome> out;
  HostSampler sampler;
  const std::int64_t t0 = run_stream(schedule, conns, out);
  const std::vector<double> host_ref = sampler.finish();
  const std::string stats_after = conns.front()->round_trip(R"({"op":"stats"})");
  conns.clear();

  // Per-key byte identity, against the first response seen for the key.
  std::map<std::string, std::string> first_bytes;
  JsonWriter w;
  w.begin_object();
  w.field("mode", "serve_client");
  std::int64_t last_recv = 0;
  for (const Outcome& o : out) last_recv = std::max(last_recv, o.recv_ns);
  // The stream span runs from the first scheduled send to the last reply.
  const int root = tracer.record("serve.stream", t0, t0 + last_recv, -1, -1);
  w.begin_array("requests");
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Outcome& o = out[i];
    const bool ok = o.response.rfind("{\"ok\":true,", 0) == 0;
    const std::string bytes = ok ? result_bytes(o.response) : std::string{};
    const auto [it, fresh] = first_bytes.emplace(schedule[i].key, bytes);
    tracer.record("request", t0 + schedule[i].offset_ns, t0 + o.recv_ns, root,
                  static_cast<std::int64_t>(i));
    w.begin_object();
    w.field("kind", to_string(schedule[i].request.kind));
    w.field("key", schedule[i].key);
    w.field("sched_ns", schedule[i].offset_ns);
    w.field("sent_ns", o.sent_ns);
    w.field("recv_ns", o.recv_ns);
    w.field("ahead", o.ahead);
    w.field("ok", ok && !bytes.empty());
    w.field("cached", field_text(o.response, "cached") == "true");
    w.field("key_match", field_text(o.response, "key") == schedule[i].key);
    w.field("bytes_match", fresh || it->second == bytes);
    if (!ok) w.field("error", o.response);
    w.end_object();
  }
  w.end_array();
  w.begin_array("host_ref");
  for (const double v : host_ref) w.element(v);
  w.end_array();
  w.raw_field("stats_before", stats_before);
  w.raw_field("stats_after", stats_after);
  if (trace) measure_in_process(schedule, warmup, first_bytes, tracer, w);
  tracer.write(w);
  w.end_object();
  emit(w);
  return 0;
}

int run_host_index(const Args& /*args*/) {
  JsonWriter w;
  w.begin_object();
  w.field("mode", "host_index");
  w.begin_array("ref");
  for (int i = 0; i < 5; ++i) w.element(reference_sample_s());
  w.end_array();
  w.end_object();
  emit(w);
  return 0;
}

}  // namespace perfbench
