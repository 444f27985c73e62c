// Serve request schema and canonicalization.
//
// A request line is one JSON object naming an experiment kind plus its
// parameters, e.g.
//   {"experiment":"nas","workload":"ft","class":"A","nodes":4,"smi":"long"}
// This is the one definition of every experiment: `smilab nas|convolve|
// unixbench` read their flags through the same parse_fields, so field
// names, defaults, bounds and spellings cannot drift between the CLI and
// serve. Parsing REJECTS unknown keys, so the parsed struct — not the
// wire bytes — is the identity of a request:
// two lines that differ only in key order, whitespace, or spelling out a
// default parse to equal structs.
//
// canonical_key() hashes exactly the fields that are live for the request's
// kind (core/fnv.h FNV-1a over tagged words). That key is the content
// address in the result cache: requests with equal keys are semantically
// the same experiment and, the simulator being deterministic, have
// byte-identical results. Fields of OTHER kinds are deliberately excluded
// so e.g. a ring request can never alias a nas request (the kind tag is
// mixed first) and an unused default can never split the key.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "smilab/apps/nas/nas.h"
#include "smilab/serve/wire.h"
#include "smilab/smm/smi_config.h"

namespace smilab::serve {

enum class ExperimentKind { kRing, kNas, kConvolve, kUnixbench };

/// Typed access to one front end's fields, in the schema's names
/// (`ranks_per_node`). Each take_* returns `fallback` when the field is
/// absent and nullopt with *error set, in the front end's own wording, when
/// it is present but invalid.
class FieldReader {
 public:
  virtual ~FieldReader() = default;
  [[nodiscard]] virtual std::optional<std::int64_t> take_int(
      std::string_view key, std::int64_t fallback, std::int64_t lo,
      std::int64_t hi, std::string* error) = 0;
  [[nodiscard]] virtual std::optional<bool> take_bool(std::string_view key,
                                                      bool fallback,
                                                      std::string* error) = 0;
  [[nodiscard]] virtual std::optional<std::string> take_string(
      std::string_view key, std::string fallback, std::string* error) = 0;
  /// How an error message names the field: `workload` or `--workload`.
  [[nodiscard]] virtual std::string label(std::string_view key) const = 0;
};

/// The SMI regime every experiment shares: `smi` (none|short|long, default
/// `fallback`) and `gap_ms`. nullopt + *error on an invalid value.
[[nodiscard]] std::optional<SmiConfig> take_smi(FieldReader& in,
                                                SmiKind fallback,
                                                std::string* error);

[[nodiscard]] const char* to_string(ExperimentKind kind);

/// A parsed, validated, default-filled experiment request.
struct ExperimentRequest {
  ExperimentKind kind = ExperimentKind::kRing;

  // Shared SMI regime + seed (defaults match the CLI commands).
  SmiKind smi = SmiKind::kLong;
  std::int64_t gap_ms = 1000;
  std::uint64_t seed = 1;

  // ring: halo exchange (the `smilab faults` workload without faults).
  int ring_nodes = 4;
  int ring_iters = 200;
  std::int64_t ring_bytes = 32 * 1024;

  // nas: one table cell, `trials` runs under none + the requested regime.
  NasJobSpec nas;
  int nas_trials = 3;

  // convolve: Figure-1 threaded convolution.
  bool convolve_cache_friendly = false;
  int convolve_cpus = 8;

  // unixbench: Figure-2 five-test index.
  int unixbench_cpus = 8;

  /// Parse and validate a request object. Unknown keys, wrong types, and
  /// out-of-range values are errors (nullopt, *error set) — strictness is
  /// what makes the canonical key safe: every accepted field is either
  /// consumed into the struct or rejected, never silently ignored.
  [[nodiscard]] static std::optional<ExperimentRequest> parse(
      const JsonValue& object, std::string* error);

  /// The schema proper: every field of `kind`, read through `in`. The
  /// caller checks for leftover fields.
  [[nodiscard]] static std::optional<ExperimentRequest> parse_fields(
      ExperimentKind kind, FieldReader& in, std::string* error);

  /// Content address: FNV-1a over the kind tag and the kind's live fields.
  [[nodiscard]] std::uint64_t canonical_key() const;

  /// The request re-rendered with every live field explicit, in schema
  /// order (diagnostics; echoed in responses so clients can audit what the
  /// daemon actually ran).
  [[nodiscard]] std::string canonical_json() const;

  /// The SmiConfig the request describes.
  [[nodiscard]] SmiConfig smi_config() const;
};

/// A request line is either an experiment or a control op.
struct RequestLine {
  enum class Op { kExperiment, kStats, kPing };
  Op op = Op::kExperiment;
  ExperimentRequest experiment;  // when op == kExperiment
};

/// Parse one request line (already split on '\n').
[[nodiscard]] std::optional<RequestLine> parse_request_line(
    std::string_view line, std::string* error);

}  // namespace smilab::serve
