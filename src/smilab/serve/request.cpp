#include "smilab/serve/request.h"

#include <array>

#include "smilab/core/fnv.h"

namespace smilab::serve {

namespace {

/// Tracks which keys of the request object have been consumed, so the
/// parser can reject leftovers by name (the serve analogue of the CLI's
/// check_leftovers).
class Fields final : public FieldReader {
 public:
  explicit Fields(const JsonValue& object) : object_(object) {}

  [[nodiscard]] const JsonValue* take(std::string_view key) {
    for (std::size_t i = 0; i < object_.members.size(); ++i) {
      if (object_.members[i].first == key) {
        used_[i] = true;
        return &object_.members[i].second;
      }
    }
    return nullptr;
  }

  [[nodiscard]] std::optional<std::int64_t> take_int(
      std::string_view key, std::int64_t fallback, std::int64_t lo,
      std::int64_t hi, std::string* error) override {
    const JsonValue* v = take(key);
    if (v == nullptr) return fallback;
    if (const auto n = v->as_int(lo, hi)) return n;
    *error = "field '" + std::string(key) + "' must be an integer in [" +
             std::to_string(lo) + ", " + std::to_string(hi) + "]";
    return std::nullopt;
  }

  [[nodiscard]] std::optional<bool> take_bool(std::string_view key,
                                              bool fallback,
                                              std::string* error) override {
    const JsonValue* v = take(key);
    if (v == nullptr) return fallback;
    if (v->type != JsonValue::Type::kBool) {
      *error = "field '" + std::string(key) + "' must be true or false";
      return std::nullopt;
    }
    return v->boolean;
  }

  [[nodiscard]] std::optional<std::string> take_string(
      std::string_view key, std::string fallback,
      std::string* error) override {
    const JsonValue* v = take(key);
    if (v == nullptr) return fallback;
    if (v->type != JsonValue::Type::kString) {
      *error = "field '" + std::string(key) + "' must be a string";
      return std::nullopt;
    }
    return v->string;
  }

  [[nodiscard]] std::string label(std::string_view key) const override {
    return std::string(key);
  }

  /// True when every member was consumed; otherwise names the first
  /// leftover in *error. Unknown keys are hard errors because a typo that
  /// parsed would silently fall back to a default AND collide with the
  /// defaulted request's cache key.
  [[nodiscard]] bool check_all_used(std::string* error) const {
    for (std::size_t i = 0; i < object_.members.size(); ++i) {
      if (!used_[i]) {
        *error = "unknown field '" + object_.members[i].first + "' for " +
                 "this request";
        return false;
      }
    }
    return true;
  }

 private:
  const JsonValue& object_;
  std::array<bool, 64> used_{};  // requests are small flat objects
};

/// The schema's spelling of a NAS benchmark, lowercase like the CLI's
/// --workload (nas.h's to_string gives the tables' "EP"/"BT"/"FT").
const char* workload_name(NasBenchmark bench) {
  switch (bench) {
    case NasBenchmark::kEP:
      return "ep";
    case NasBenchmark::kBT:
      return "bt";
    case NasBenchmark::kFT:
      return "ft";
  }
  return "?";
}

/// The `smi` and `gap_ms` fields. False + *error on an invalid value.
bool take_smi_fields(FieldReader& in, SmiKind fallback, SmiKind* kind,
                     std::int64_t* gap_ms, std::string* error) {
  const auto smi = in.take_string("smi", to_string(fallback), error);
  if (!smi) return false;
  if (*smi == "none") *kind = SmiKind::kNone;
  else if (*smi == "short") *kind = SmiKind::kShort;
  else if (*smi == "long") *kind = SmiKind::kLong;
  else {
    *error = "unknown " + in.label("smi") + " kind '" + *smi +
             "' (none|short|long)";
    return false;
  }
  const auto gap = in.take_int("gap_ms", 1000, 1, 3'600'000, error);
  if (!gap) return false;
  *gap_ms = *gap;
  return true;
}

SmiConfig smi_config_of(SmiKind kind, std::int64_t gap_ms) {
  switch (kind) {
    case SmiKind::kNone:
      return SmiConfig::none();
    case SmiKind::kShort:
      return SmiConfig::short_with_gap(gap_ms);
    case SmiKind::kLong:
      return SmiConfig::long_with_gap(gap_ms);
  }
  return SmiConfig::none();
}

}  // namespace

std::optional<SmiConfig> take_smi(FieldReader& in, SmiKind fallback,
                                  std::string* error) {
  SmiKind kind = fallback;
  std::int64_t gap_ms = 0;
  if (!take_smi_fields(in, fallback, &kind, &gap_ms, error)) {
    return std::nullopt;
  }
  return smi_config_of(kind, gap_ms);
}

const char* to_string(ExperimentKind kind) {
  switch (kind) {
    case ExperimentKind::kRing:
      return "ring";
    case ExperimentKind::kNas:
      return "nas";
    case ExperimentKind::kConvolve:
      return "convolve";
    case ExperimentKind::kUnixbench:
      return "unixbench";
  }
  return "?";
}

std::optional<ExperimentRequest> ExperimentRequest::parse(
    const JsonValue& object, std::string* error) {
  if (object.type != JsonValue::Type::kObject) {
    *error = "request must be a JSON object";
    return std::nullopt;
  }
  if (object.members.size() > 64) {
    *error = "request has too many fields";
    return std::nullopt;
  }
  Fields fields{object};
  const auto kind = fields.take_string("experiment", "", error);
  if (!kind) return std::nullopt;
  ExperimentKind k;
  if (*kind == "ring") k = ExperimentKind::kRing;
  else if (*kind == "nas") k = ExperimentKind::kNas;
  else if (*kind == "convolve") k = ExperimentKind::kConvolve;
  else if (*kind == "unixbench") k = ExperimentKind::kUnixbench;
  else {
    *error = kind->empty()
                 ? "missing 'experiment' (ring|nas|convolve|unixbench)"
                 : "unknown experiment '" + *kind + "'";
    return std::nullopt;
  }
  auto req = parse_fields(k, fields, error);
  if (!req || !fields.check_all_used(error)) return std::nullopt;
  return req;
}

std::optional<ExperimentRequest> ExperimentRequest::parse_fields(
    ExperimentKind kind, FieldReader& fields, std::string* error) {
  ExperimentRequest req;
  req.kind = kind;
  if (!take_smi_fields(fields, SmiKind::kLong, &req.smi, &req.gap_ms,
                       error)) {
    return std::nullopt;
  }

  switch (req.kind) {
    case ExperimentKind::kRing: {
      const auto seed = fields.take_int("seed", 1, 0, INT64_MAX, error);
      const auto nodes = fields.take_int("nodes", 4, 2, 64, error);
      const auto iters = fields.take_int("iters", 200, 1, 100'000, error);
      const auto bytes =
          fields.take_int("bytes", 32 * 1024, 0, 1 << 30, error);
      if (!seed || !nodes || !iters || !bytes) return std::nullopt;
      req.seed = static_cast<std::uint64_t>(*seed);
      req.ring_nodes = static_cast<int>(*nodes);
      req.ring_iters = static_cast<int>(*iters);
      req.ring_bytes = *bytes;
      break;
    }
    case ExperimentKind::kNas: {
      const auto workload = fields.take_string("workload", "ep", error);
      if (!workload) return std::nullopt;
      if (*workload == "ep") req.nas.bench = NasBenchmark::kEP;
      else if (*workload == "bt") req.nas.bench = NasBenchmark::kBT;
      else if (*workload == "ft") req.nas.bench = NasBenchmark::kFT;
      else {
        *error = "unknown " + fields.label("workload") + " '" + *workload +
                 "' (ep|bt|ft)";
        return std::nullopt;
      }
      const auto cls = fields.take_string("class", "A", error);
      if (!cls) return std::nullopt;
      if (*cls == "A") req.nas.cls = NasClass::kA;
      else if (*cls == "B") req.nas.cls = NasClass::kB;
      else if (*cls == "C") req.nas.cls = NasClass::kC;
      else {
        *error = "unknown " + fields.label("class") + " '" + *cls +
                 "' (A|B|C)";
        return std::nullopt;
      }
      const auto seed = fields.take_int("seed", 2016, 0, INT64_MAX, error);
      const auto nodes = fields.take_int("nodes", 4, 1, 64, error);
      const auto rpn = fields.take_int("ranks_per_node", 1, 1, 4, error);
      const auto htt = fields.take_bool("htt", false, error);
      const auto trials = fields.take_int("trials", 3, 1, 64, error);
      if (!seed || !nodes || !rpn || !htt || !trials) return std::nullopt;
      req.seed = static_cast<std::uint64_t>(*seed);
      req.nas.nodes = static_cast<int>(*nodes);
      req.nas.ranks_per_node = static_cast<int>(*rpn);
      req.nas.htt = *htt;
      req.nas_trials = static_cast<int>(*trials);
      if (!nas_valid_rank_count(req.nas.bench, req.nas.ranks())) {
        *error = std::string(smilab::to_string(req.nas.bench)) +
                 " does not support " + std::to_string(req.nas.ranks()) +
                 " ranks (BT: square, FT: power of two)";
        return std::nullopt;
      }
      break;
    }
    case ExperimentKind::kConvolve: {
      const auto seed = fields.take_int("seed", 1, 0, INT64_MAX, error);
      const auto c = fields.take_string("case", "cu", error);
      const auto cpus = fields.take_int("cpus", 8, 1, 8, error);
      if (!seed || !c || !cpus) return std::nullopt;
      if (*c == "cf") req.convolve_cache_friendly = true;
      else if (*c == "cu") req.convolve_cache_friendly = false;
      else {
        *error = "unknown " + fields.label("case") + " '" + *c + "' (cf|cu)";
        return std::nullopt;
      }
      req.seed = static_cast<std::uint64_t>(*seed);
      req.convolve_cpus = static_cast<int>(*cpus);
      break;
    }
    case ExperimentKind::kUnixbench: {
      const auto seed = fields.take_int("seed", 1, 0, INT64_MAX, error);
      const auto cpus = fields.take_int("cpus", 8, 1, 8, error);
      if (!seed || !cpus) return std::nullopt;
      req.seed = static_cast<std::uint64_t>(*seed);
      req.unixbench_cpus = static_cast<int>(*cpus);
      break;
    }
  }

  return req;
}

std::uint64_t ExperimentRequest::canonical_key() const {
  Fnv64 h;
  // A fixed schema-version word first: bump it whenever a kind's semantics
  // change, so stale cross-version cache files (if a persistent tier is
  // ever added) can never alias.
  h.mix(0x736d696c'61623031ull);  // "smilab01"
  h.mix(static_cast<std::uint64_t>(kind));
  h.mix(static_cast<std::uint64_t>(smi));
  // The gap only matters when SMIs fire; folding it to a constant for
  // smi=none makes {"smi":"none","gap_ms":7} hit {"smi":"none"}.
  h.mix_signed(smi == SmiKind::kNone ? 0 : gap_ms);
  h.mix(seed);
  switch (kind) {
    case ExperimentKind::kRing:
      h.mix_signed(ring_nodes);
      h.mix_signed(ring_iters);
      h.mix_signed(ring_bytes);
      break;
    case ExperimentKind::kNas:
      h.mix(static_cast<std::uint64_t>(nas.bench));
      h.mix(static_cast<std::uint64_t>(nas.cls));
      h.mix_signed(nas.nodes);
      h.mix_signed(nas.ranks_per_node);
      h.mix(nas.htt ? 1 : 0);
      h.mix_signed(nas_trials);
      break;
    case ExperimentKind::kConvolve:
      h.mix(convolve_cache_friendly ? 1 : 0);
      h.mix_signed(convolve_cpus);
      break;
    case ExperimentKind::kUnixbench:
      h.mix_signed(unixbench_cpus);
      break;
  }
  return h.value();
}

std::string ExperimentRequest::canonical_json() const {
  JsonWriter w;
  w.begin_object();
  w.field("experiment", to_string(kind));
  w.field("smi", smilab::to_string(smi));
  // No gap without SMIs: it is dead (canonical_key folds it), and the 0
  // the key mixes in its place is not a gap a request may send.
  if (smi != SmiKind::kNone) w.field("gap_ms", gap_ms);
  w.field("seed", static_cast<std::int64_t>(seed));
  switch (kind) {
    case ExperimentKind::kRing:
      w.field("nodes", ring_nodes);
      w.field("iters", ring_iters);
      w.field("bytes", ring_bytes);
      break;
    case ExperimentKind::kNas:
      w.field("workload", workload_name(nas.bench));
      w.field("class", smilab::to_string(nas.cls));
      w.field("nodes", nas.nodes);
      w.field("ranks_per_node", nas.ranks_per_node);
      w.field("htt", nas.htt);
      w.field("trials", nas_trials);
      break;
    case ExperimentKind::kConvolve:
      w.field("case", convolve_cache_friendly ? "cf" : "cu");
      w.field("cpus", convolve_cpus);
      break;
    case ExperimentKind::kUnixbench:
      w.field("cpus", unixbench_cpus);
      break;
  }
  w.end_object();
  return w.take();
}

SmiConfig ExperimentRequest::smi_config() const {
  return smi_config_of(smi, gap_ms);
}

std::optional<RequestLine> parse_request_line(std::string_view line,
                                              std::string* error) {
  const auto doc = parse_json(line, error);
  if (!doc) return std::nullopt;
  RequestLine out;
  if (const JsonValue* op = doc->find("op"); op != nullptr) {
    if (op->type != JsonValue::Type::kString) {
      *error = "field 'op' must be a string";
      return std::nullopt;
    }
    if (doc->members.size() != 1) {
      *error = "control requests carry only the 'op' field";
      return std::nullopt;
    }
    if (op->string == "stats") {
      out.op = RequestLine::Op::kStats;
      return out;
    }
    if (op->string == "ping") {
      out.op = RequestLine::Op::kPing;
      return out;
    }
    *error = "unknown op '" + op->string + "' (stats|ping)";
    return std::nullopt;
  }
  const auto req = ExperimentRequest::parse(*doc, error);
  if (!req) return std::nullopt;
  out.op = RequestLine::Op::kExperiment;
  out.experiment = *req;
  return out;
}

}  // namespace smilab::serve
