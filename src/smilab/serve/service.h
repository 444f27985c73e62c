// SweepService: the serve daemon's brain, shared by the Unix-socket server,
// the --stdin-batch front end, and the tests (which call serve_line
// directly, no sockets involved).
//
// Request flow for an experiment line:
//   parse -> canonical key -> cache lookup
//     hit   : respond with the cached payload bytes, zero simulation.
//     miss  : single-flight — the FIRST requester of a key submits one
//             simulation job to the SweepPool and everyone with that key
//             (including requesters arriving while it runs) waits on the
//             same shared future, so a thundering herd of identical
//             requests costs exactly one simulation.
//   The response envelope is
//     {"ok":true,"key":"<16-hex>","cached":<bool>,"result":<payload>}
//   where <payload> is the canonical result JSON. Only the payload is
//   cached: the envelope's `cached` flag varies per response, the payload
//   bytes never do (hit-equals-miss is a test-pinned invariant).
//
// Persistent workers: simulation jobs run on a SweepPool (core/sweep.h)
// whose threads outlive requests. Each job builds its own System, so no
// simulation state carries from one request to the next.
//
// Determinism: nothing in serve/ reads wall-clock time or
// non-deterministic RNG (smilint D1/D2 apply to this directory).
// Latency is the loadgen client's business.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "smilab/serve/request.h"
#include "smilab/serve/result_cache.h"

namespace smilab::serve {

struct ServiceConfig {
  /// Simulation worker threads (core/sweep.h semantics: <=0 means
  /// hardware concurrency).
  int workers = 0;
  /// Result-cache payload budget in bytes.
  std::int64_t cache_bytes = 64 * 1024 * 1024;
  int cache_shards = 16;
};

struct ServiceStats {
  CacheStats cache;
  std::int64_t requests = 0;     ///< experiment requests parsed OK
  std::int64_t simulations = 0;  ///< jobs actually run (misses after
                                 ///< single-flight coalescing)
  std::int64_t coalesced = 0;    ///< requests that joined an in-flight job
  std::int64_t errors = 0;       ///< parse/validation/simulation failures
  /// Process-wide memo fills, shared with every other caller in the
  /// process: SMI-free UnixBench suites (run_unixbench) and SMI-free
  /// Convolve runs (run_convolve_sim).
  std::int64_t unixbench_baselines = 0;
  std::int64_t convolve_baselines = 0;
  /// The process's peak resident set so far, in KiB
  /// (getrusage(RUSAGE_SELF).ru_maxrss): the daemon's own memory, whoever
  /// else shares the process.
  std::int64_t peak_rss_kb = 0;
  int workers = 0;
};

class SweepService {
 public:
  explicit SweepService(const ServiceConfig& config);
  ~SweepService();
  SweepService(const SweepService&) = delete;
  SweepService& operator=(const SweepService&) = delete;

  /// Handle one request line; returns the response line (no trailing
  /// newline). Never throws: every failure becomes an
  /// {"ok":false,"error":...} response. Blocks until the result is ready;
  /// safe to call from many threads concurrently.
  [[nodiscard]] std::string serve_line(std::string_view line);

  /// The {"ok":false,"error":...} response line (no trailing newline) for
  /// a request refused before parsing, e.g. an over-long socket line.
  /// Counts in stats().errors like any other failed request.
  [[nodiscard]] std::string error_line(std::string_view error);

  /// A parsed experiment served directly (tests; bypasses JSON parsing but
  /// follows the identical cache/single-flight path).
  struct Served {
    bool ok = false;
    bool cached = false;
    std::uint64_t key = 0;
    /// Canonical result JSON on success (the cached bytes), else empty.
    std::shared_ptr<const std::string> payload;
    std::string error;
  };
  [[nodiscard]] Served serve(const ExperimentRequest& request);

  [[nodiscard]] ServiceStats stats() const;

 private:
  struct Impl;
  // guarded_by(internal): Impl carries flight_mu plus self-synchronizing
  // pool/cache members; see service.cpp for the per-field discipline.
  std::unique_ptr<Impl> impl_;
};

/// Compute one experiment synchronously on the calling thread (no cache,
/// no pool) and render its canonical payload JSON. The single source of
/// truth for payload bytes: the service's miss path calls exactly this.
/// Throws SimulationError if the simulation faults.
[[nodiscard]] std::string run_experiment_payload(
    const ExperimentRequest& request);

}  // namespace smilab::serve
