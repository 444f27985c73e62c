// Seeded mutation fuzzer over serve's request path, in the style of
// fuzz_test.cpp: valid request lines are mutated (byte flips, truncation,
// splices, huge and negative numbers, deep nesting, embedded NULs) and
// every result goes through parse_request_line and SweepService::serve_line.
// On every input:
//   * parsing gives a request or an error message, never both or neither;
//   * a parsed experiment re-renders (canonical_json) to a line that parses
//     to the same content address;
//   * serve_line answers exactly one line of JSON: valid UTF-8 (error
//     lines echo client bytes), an object whose first member is the
//     boolean `ok`, false exactly when parsing failed.
// Experiments that parse are served only while they stay cheap (see
// `cheap`), so the fuzzer runs well under a second in Release; the rest
// still exercise the parser and the key.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "smilab/serve/request.h"
#include "smilab/serve/service.h"
#include "smilab/serve/wire.h"
#include "smilab/time/rng.h"

namespace smilab::serve {
namespace {

const std::vector<std::string>& corpus() {
  static const std::vector<std::string> lines = {
      R"({"experiment":"ring","nodes":2,"iters":3,"bytes":256,"smi":"long","gap_ms":200,"seed":4})",
      R"({"experiment":"ring","nodes":3,"iters":2,"bytes":131072,"smi":"short","gap_ms":50,"seed":9})",
      R"({"experiment":"convolve","case":"cf","cpus":2,"smi":"none","seed":3})",
      R"({"experiment":"convolve","case":"cu","cpus":1,"smi":"long","gap_ms":600})",
      R"({"experiment":"unixbench","cpus":1,"smi":"long","gap_ms":600,"seed":2})",
      R"({"experiment":"unixbench","cpus":2,"smi":"none"})",
      R"({"experiment":"nas","workload":"ft","class":"A","nodes":4,"ranks_per_node":1,"htt":true,"trials":2,"seed":7})",
      R"( { "experiment" : "nas" , "workload" : "bt" , "nodes" : 4 } )",
      R"({"op":"stats"})",
      R"({"op":"ping"})",
  };
  return lines;
}

/// Numbers a hostile client might send in place of any number: range
/// edges, values past int64 and double, fractions, signs and non-JSON forms.
constexpr const char* kHostileNumbers[] = {
    "-1", "0", "-0", "1", "2.5", "1e3", "65", "100001", "3600001",
    "1073741825", "4294967296", "9007199254740993", "9223372036854775807",
    "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
    "18446744073709551616", "1e19", "1e308", "1e309", "-1e309", "1e-400",
    "00012", "+5", "0x10", "NaN", "Infinity", "-", "1e", ".5", "5.",
};

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// Replace the number at a random digit of `line` (if any) with a hostile
/// one.
std::string swap_number(std::string line, Rng& rng) {
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const bool digit = line[i] >= '0' && line[i] <= '9';
    if (digit && (i == 0 || line[i - 1] < '0' || line[i - 1] > '9')) {
      starts.push_back(i);
    }
  }
  if (starts.empty()) return line;
  const std::size_t at = starts[pick(rng, starts.size())];
  std::size_t end = at;
  while (end < line.size() && line[end] >= '0' && line[end] <= '9') ++end;
  return line.replace(at, end - at,
                      kHostileNumbers[pick(rng, std::size(kHostileNumbers))]);
}

/// `depth` levels of arrays or objects, placed where a value was.
std::string nest_value(std::string line, Rng& rng) {
  const std::size_t colon = line.find(':', pick(rng, line.size()));
  if (colon == std::string::npos) return line;
  constexpr int kDepths[] = {1, 31, 32, 33, 200, 20000};
  const int depth = kDepths[pick(rng, std::size(kDepths))];
  const bool objects = rng.next_double() < 0.5;
  std::string open, close;
  for (int d = 0; d < depth; ++d) {
    open += objects ? R"({"a":)" : "[";
    close += objects ? "}" : "]";
  }
  line.insert(colon + 1, open + "1" + close);
  return line;
}

std::string mutate(Rng& rng) {
  const std::vector<std::string>& lines = corpus();
  std::string line = lines[pick(rng, lines.size())];
  const int rounds = rng.next_double() < 0.7 ? 1 : 2;
  for (int r = 0; r < rounds; ++r) {
    switch (rng.uniform_int(0, 6)) {
      case 0:  // flip one bit
        if (!line.empty()) {
          line[pick(rng, line.size())] ^=
              static_cast<char>(1u << rng.uniform_int(0, 7));
        }
        break;
      case 1:  // overwrite one byte with any byte
        if (!line.empty()) {
          line[pick(rng, line.size())] =
              static_cast<char>(rng.uniform_int(0, 255));
        }
        break;
      case 2:  // truncate
        line.resize(pick(rng, line.size() + 1));
        break;
      case 3: {  // splice: a prefix of this line and a suffix of another
        const std::string& other = lines[pick(rng, lines.size())];
        line = line.substr(0, pick(rng, line.size() + 1)) +
               other.substr(pick(rng, other.size() + 1));
        break;
      }
      case 4:
        line = swap_number(std::move(line), rng);
        break;
      case 5:
        line = nest_value(std::move(line), rng);
        break;
      default:  // embedded NUL
        line.insert(pick(rng, line.size() + 1), 1, '\0');
        break;
    }
  }
  return line;
}

/// RFC 3629 validity, checked by decoding rather than by the byte-range
/// table serve/wire.cpp's escaper uses: every sequence decodes to a scalar
/// value in its length's range (no overlongs), outside the surrogates and
/// at most U+10FFFF.
bool valid_utf8(std::string_view s) {
  static constexpr std::uint32_t kMinForLength[] = {0, 0, 0x80, 0x800, 0x10000};
  for (std::size_t i = 0; i < s.size();) {
    const auto lead = static_cast<unsigned char>(s[i]);
    const std::size_t n = lead < 0x80           ? 1
                          : (lead >> 5) == 0x6  ? 2
                          : (lead >> 4) == 0xE  ? 3
                          : (lead >> 3) == 0x1E ? 4
                                                : 0;
    if (n == 0 || s.size() - i < n) return false;
    std::uint32_t cp = n == 1 ? lead : lead & (0x7Fu >> n);
    for (std::size_t k = 1; k < n; ++k) {
      const auto cont = static_cast<unsigned char>(s[i + k]);
      if ((cont >> 6) != 0x2) return false;
      cp = (cp << 6) | (cont & 0x3Fu);
    }
    if (cp < kMinForLength[n] || cp > 0x10FFFF ||
        (cp >= 0xD800 && cp <= 0xDFFF)) {
      return false;
    }
    i += n;
  }
  return true;
}

/// Whether serving `r` stays within the fuzzer's budget: rings of at most
/// 1000 rank-iterations of at most 1 MiB messages, SMI-free Convolve (its
/// memoized baseline), UnixBench on 1, 2 or 4 CPUs (one Compute per copy),
/// and no SMI gap under 50 ms. NAS requests calibrate their knob first,
/// which takes seconds. 3-CPU UnixBench is left to
/// ServeService.StatsReportProcessWideMemoFills, which counts that shape's
/// memo fill and may share this process.
bool cheap(const ExperimentRequest& r) {
  if (r.smi != SmiKind::kNone && r.gap_ms < 50) return false;
  switch (r.kind) {
    case ExperimentKind::kRing:
      return r.ring_nodes * r.ring_iters <= 1000 && r.ring_bytes <= (1 << 20);
    case ExperimentKind::kNas:
      return false;
    case ExperimentKind::kConvolve:
      return r.smi == SmiKind::kNone;
    case ExperimentKind::kUnixbench:
      return r.unixbench_cpus <= 4 && r.unixbench_cpus != 3;
  }
  return false;
}

TEST(ServeFuzzTest, MutatedRequestLinesParseOrFailAndAnswerOneJsonLine) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.cache_bytes = 1 << 20;
  SweepService service{cfg};
  Rng rng{0x5E5'F022};
  int parsed = 0;
  int rejected = 0;
  int served = 0;
  for (int i = 0; i < 6000; ++i) {
    const std::string line = mutate(rng);
    SCOPED_TRACE(testing::Message() << "input " << i << ": " << line);

    std::string error;
    const auto request = parse_request_line(line, &error);
    EXPECT_EQ(request.has_value(), error.empty()) << error;
    if (request) {
      ++parsed;
    } else {
      ++rejected;
    }
    const bool experiment =
        request && request->op == RequestLine::Op::kExperiment;
    if (experiment) {
      const ExperimentRequest& req = request->experiment;
      std::string again_error;
      const auto again =
          parse_request_line(req.canonical_json(), &again_error);
      ASSERT_TRUE(again.has_value())
          << req.canonical_json() << ": " << again_error;
      EXPECT_EQ(again->experiment.canonical_key(), req.canonical_key())
          << req.canonical_json();
      if (!cheap(req)) continue;
      ++served;
    }

    const std::string response = service.serve_line(line);
    EXPECT_EQ(response.find_first_of("\n\r"), std::string::npos) << response;
    EXPECT_TRUE(valid_utf8(response)) << response;
    std::string json_error;
    const auto doc = parse_json(response, &json_error);
    ASSERT_TRUE(doc.has_value()) << response << ": " << json_error;
    ASSERT_EQ(doc->type, JsonValue::Type::kObject) << response;
    ASSERT_FALSE(doc->members.empty()) << response;
    EXPECT_EQ(doc->members.front().first, "ok") << response;
    const JsonValue& ok = doc->members.front().second;
    ASSERT_EQ(ok.type, JsonValue::Type::kBool) << response;
    EXPECT_EQ(ok.boolean, request.has_value()) << response;
  }
  // Enough of each outcome that the run says something. This seed parses
  // 354 lines (control ops included), rejects 5646 and serves 78
  // experiments.
  EXPECT_GT(parsed, 200);
  EXPECT_GT(rejected, 4000);
  EXPECT_GT(served, 50);
  EXPECT_EQ(service.stats().errors, rejected);
}

}  // namespace
}  // namespace smilab::serve
