// Tests for the CLI layer: option parsing and command behaviour (run
// in-process against string streams).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <vector>

#include "smilab/cli/commands.h"
#include "smilab/cli/options.h"
#include "smilab/serve/request.h"
#include "smilab/serve/wire.h"

namespace smilab {
namespace {

Options parse_ok(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"smilab"};
  argv.insert(argv.end(), args.begin(), args.end());
  std::string error;
  const auto options =
      Options::parse(static_cast<int>(argv.size()), argv.data(), &error);
  EXPECT_TRUE(options.has_value()) << error;
  return *options;
}

TEST(OptionsTest, ParsesCommandAndFlags) {
  const Options options =
      parse_ok({"nas", "--workload=ft", "--nodes=8", "--htt"});
  EXPECT_EQ(options.command(), "nas");
  EXPECT_EQ(options.get("workload", ""), "ft");
  std::string error;
  EXPECT_EQ(options.get_int("nodes", 0, 1, 16, &error), 8);
  EXPECT_TRUE(options.get_bool("htt", false, &error));
  EXPECT_TRUE(error.empty());
}

TEST(OptionsTest, DefaultsWhenMissing) {
  const Options options = parse_ok({"convolve"});
  std::string error;
  EXPECT_EQ(options.get("case", "cu"), "cu");
  EXPECT_EQ(options.get_int("cpus", 8, 1, 8, &error), 8);
  EXPECT_DOUBLE_EQ(options.get_double("x", 1.5, &error), 1.5);
  EXPECT_FALSE(options.get_bool("htt", false, &error));
}

TEST(OptionsTest, RejectsMalformedInput) {
  std::string error;
  const char* extra_positional[] = {"smilab", "nas", "oops"};
  EXPECT_FALSE(Options::parse(3, extra_positional, &error).has_value());
  EXPECT_NE(error.find("positional"), std::string::npos);

  const char* empty_flag[] = {"smilab", "--"};
  EXPECT_FALSE(Options::parse(2, empty_flag, &error).has_value());

  const char* empty_name[] = {"smilab", "--=3"};
  EXPECT_FALSE(Options::parse(2, empty_name, &error).has_value());
}

TEST(OptionsTest, RepeatedFlagIsAnError) {
  std::string error;
  const char* valued[] = {"smilab", "rim", "--scan-mb=16", "--scan-mb=64"};
  EXPECT_FALSE(Options::parse(4, valued, &error).has_value());
  EXPECT_NE(error.find("--scan-mb"), std::string::npos) << error;

  error.clear();
  const char* bare[] = {"smilab", "nas", "--htt", "--htt=false"};
  EXPECT_FALSE(Options::parse(4, bare, &error).has_value());
  EXPECT_NE(error.find("--htt"), std::string::npos) << error;
}

TEST(OptionsTest, TypeErrorsReported) {
  const Options options = parse_ok({"nas", "--nodes=abc"});
  std::string error;
  EXPECT_EQ(options.get_int("nodes", 7, 1, 16, &error), 7);
  EXPECT_NE(error.find("--nodes"), std::string::npos);
}

TEST(OptionsTest, IntegerOutsideRangeIsAnError) {
  const Options options = parse_ok(
      {"faults", "--lo=0", "--hi=9", "--edge=8", "--huge=4294967297",
       "--overflow=99999999999999999999"});
  std::string error;
  EXPECT_EQ(options.get_int("edge", 1, 1, 8, &error), 8);  // bounds inclusive
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_EQ(options.get_int("lo", 4, 1, 8, &error), 4);
  EXPECT_NE(error.find("--lo must be an integer in [1, 8]"), std::string::npos)
      << error;
  EXPECT_EQ(options.get_int("hi", 4, 1, 8, &error), 4);
  EXPECT_NE(error.find("--hi"), std::string::npos) << error;
  EXPECT_EQ(options.get_int("huge", 200, 1, 2147483647, &error), 200);
  EXPECT_NE(error.find("--huge"), std::string::npos) << error;
  error.clear();
  EXPECT_EQ(options.get_int("overflow", 3, 0, 10, &error), 3);
  EXPECT_NE(error.find("--overflow"), std::string::npos) << error;
}

TEST(OptionsTest, UnconsumedFlagsDetected) {
  const Options options = parse_ok({"nas", "--workload=ep", "--typo=1"});
  (void)options.get("workload", "");
  const auto extra = options.unconsumed();
  ASSERT_EQ(extra.size(), 1u);
  EXPECT_EQ(extra[0], "typo");
}

int run(std::initializer_list<const char*> args, std::string* out_text,
        std::string* err_text = nullptr) {
  std::vector<const char*> argv{"smilab"};
  argv.insert(argv.end(), args.begin(), args.end());
  std::ostringstream out, err;
  const int rc =
      run_cli(static_cast<int>(argv.size()), argv.data(), out, err);
  if (out_text) *out_text = out.str();
  if (err_text) *err_text = err.str();
  return rc;
}

TEST(CliTest, HelpPrintsUsage) {
  std::string out;
  EXPECT_EQ(run({"help"}, &out), 0);
  EXPECT_NE(out.find("usage: smilab"), std::string::npos);
  EXPECT_NE(out.find("unixbench"), std::string::npos);
}

TEST(CliTest, NoCommandIsAnError) {
  std::string out;
  EXPECT_EQ(run({}, &out), 2);
  EXPECT_NE(out.find("usage"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails) {
  std::string out, err;
  EXPECT_EQ(run({"frobnicate"}, &out, &err), 2);
  EXPECT_NE(err.find("unknown command"), std::string::npos);
}

TEST(CliTest, UnknownFlagFails) {
  std::string out, err;
  EXPECT_EQ(run({"convolve", "--cpuz=4"}, &out, &err), 2);
  EXPECT_NE(err.find("--cpuz"), std::string::npos);
}

TEST(CliTest, RepeatedFlagFails) {
  std::string out, err;
  EXPECT_EQ(run({"rim", "--scan-mb=16", "--scan-mb=64"}, &out, &err), 2);
  EXPECT_NE(err.find("--scan-mb"), std::string::npos) << err;
  EXPECT_TRUE(out.find("RIM policy") == std::string::npos) << out;
}

// Only detect and faults write a trace; the other commands must reject
// --trace as an unknown flag rather than accept it and write nothing.
void expect_trace_rejected(const char* command) {
  const std::string path = ::testing::TempDir() + "/smilab_cli_" +
                           std::string(command) + "_trace.json";
  std::remove(path.c_str());
  std::string out, err;
  EXPECT_EQ(run({command, ("--trace=" + path).c_str()}, &out, &err), 2);
  EXPECT_NE(err.find("--trace"), std::string::npos) << err;
  EXPECT_FALSE(std::ifstream{path}.good()) << path;
}

TEST(CliTest, NasRejectsTraceFlag) { expect_trace_rejected("nas"); }
TEST(CliTest, ConvolveRejectsTraceFlag) { expect_trace_rejected("convolve"); }
TEST(CliTest, UnixbenchRejectsTraceFlag) { expect_trace_rejected("unixbench"); }
TEST(CliTest, RimRejectsTraceFlag) { expect_trace_rejected("rim"); }

TEST(CliTest, NasCommandReportsSlowdown) {
  std::string out;
  const int rc = run({"nas", "--workload=ep", "--class=A", "--nodes=2",
                      "--smi=long", "--trials=2"},
                     &out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("NAS EP class A"), std::string::npos);
  EXPECT_NE(out.find("paper baseline 11.69"), std::string::npos);
  EXPECT_NE(out.find("% slowdown"), std::string::npos);
}

// A usage error exits 2, names the problem on stderr and runs nothing.
void expect_usage_error(std::initializer_list<const char*> args,
                        const std::string& message) {
  std::string out, err;
  EXPECT_EQ(run(args, &out, &err), 2);
  EXPECT_NE(err.find(message), std::string::npos) << err;
  EXPECT_TRUE(out.empty()) << out;
}

TEST(CliTest, NasRejectsRetainedFlag) {
  // Every NAS run streams its rank programs; there is no residency flag.
  expect_usage_error(
      {"nas", "--workload=ep", "--nodes=1", "--trials=1", "--retained"},
      "--retained");
}

TEST(CliTest, NasRejectsZeroTrials) {
  expect_usage_error({"nas", "--workload=ep", "--nodes=1", "--trials=0"},
                     "--trials must be an integer in [1, ");
}

// nas takes serve's request bounds, and no longer the --interval-ms alias
// of --gap-ms; a boolean flag must spell a boolean.
TEST(CliTest, NasTakesServesBounds) {
  expect_usage_error({"nas", "--ranks-per-node=5", "--htt"},
                     "--ranks-per-node must be an integer in [1, 4]");
  expect_usage_error({"nas", "--nodes=65"},
                     "--nodes must be an integer in [1, 64]");
  expect_usage_error({"nas", "--trials=65"},
                     "--trials must be an integer in [1, 64]");
  expect_usage_error({"nas", "--interval-ms=500"}, "--interval-ms");
  expect_usage_error({"nas", "--htt=banana"}, "--htt");
}

TEST(OptionsTest, BooleanFlagMustSpellABoolean) {
  const Options options = parse_ok({"nas", "--a", "--b=1", "--c=0", "--d=yes"});
  std::string error;
  EXPECT_TRUE(options.get_bool("a", false, &error));
  EXPECT_TRUE(options.get_bool("b", false, &error));
  EXPECT_FALSE(options.get_bool("c", true, &error));
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_FALSE(options.get_bool("d", false, &error));
  EXPECT_NE(error.find("--d"), std::string::npos) << error;
}

// One schema: the same experiment given as flags and as a serve request
// parses to the same canonical key and config, at every default and with
// each field set away from it.
struct ParityCase {
  serve::ExperimentKind kind;
  std::vector<const char*> flags;
  std::string json;
};

TEST(CliTest, ExperimentFlagsMatchServeRequests) {
  using serve::ExperimentKind;
  const std::vector<ParityCase> cases = {
      {ExperimentKind::kNas, {"nas"}, R"({"experiment":"nas"})"},
      {ExperimentKind::kNas,
       {"nas", "--workload=ft", "--class=B", "--nodes=2",
        "--ranks-per-node=4", "--htt", "--trials=5", "--seed=9",
        "--smi=short", "--gap-ms=250"},
       R"({"experiment":"nas","workload":"ft","class":"B","nodes":2,)"
       R"("ranks_per_node":4,"htt":true,"trials":5,"seed":9,"smi":"short",)"
       R"("gap_ms":250})"},
      {ExperimentKind::kNas, {"nas", "--workload=bt", "--class=C", "--nodes=4",
                              "--smi=none"},
       R"({"experiment":"nas","workload":"bt","class":"C","nodes":4,)"
       R"("smi":"none"})"},
      {ExperimentKind::kConvolve, {"convolve"}, R"({"experiment":"convolve"})"},
      {ExperimentKind::kConvolve,
       {"convolve", "--case=cf", "--cpus=3", "--seed=4", "--smi=none",
        "--gap-ms=50"},
       R"({"experiment":"convolve","case":"cf","cpus":3,"seed":4,)"
       R"("smi":"none","gap_ms":50})"},
      {ExperimentKind::kUnixbench, {"unixbench"},
       R"({"experiment":"unixbench"})"},
      {ExperimentKind::kUnixbench,
       {"unixbench", "--cpus=5", "--seed=0", "--smi=short", "--gap-ms=600"},
       R"({"experiment":"unixbench","cpus":5,"seed":0,"smi":"short",)"
       R"("gap_ms":600})"},
  };
  for (const ParityCase& c : cases) {
    std::vector<const char*> argv{"smilab"};
    argv.insert(argv.end(), c.flags.begin(), c.flags.end());
    std::string error;
    const auto options =
        Options::parse(static_cast<int>(argv.size()), argv.data(), &error);
    ASSERT_TRUE(options.has_value()) << error;
    const auto cli = parse_experiment_flags(c.kind, *options, &error);
    ASSERT_TRUE(cli.has_value()) << c.json << ": " << error;
    EXPECT_TRUE(options->unconsumed().empty()) << c.json;
    const auto doc = serve::parse_json(c.json, &error);
    ASSERT_TRUE(doc.has_value()) << error;
    const auto json = serve::ExperimentRequest::parse(*doc, &error);
    ASSERT_TRUE(json.has_value()) << c.json << ": " << error;
    EXPECT_EQ(cli->canonical_key(), json->canonical_key()) << c.json;
    EXPECT_EQ(cli->canonical_json(), json->canonical_json()) << c.json;
  }
}

TEST(CliTest, NasRejectsInvalidRankCount) {
  std::string out, err;
  const int rc = run({"nas", "--workload=bt", "--nodes=3"}, &out, &err);
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.find("square"), std::string::npos);
}

TEST(CliTest, ConvolveCommandRuns) {
  std::string out;
  const int rc =
      run({"convolve", "--case=cf", "--cpus=4", "--smi=long", "--gap-ms=200"},
          &out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("CacheFriendly"), std::string::npos);
  EXPECT_NE(out.find("% slowdown"), std::string::npos);
}

TEST(CliTest, UnixbenchCommandRuns) {
  std::string out;
  const int rc = run({"unixbench", "--cpus=2", "--smi=long", "--gap-ms=600"},
                     &out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("total index"), std::string::npos);
  EXPECT_NE(out.find("Dhrystone"), std::string::npos);
}

TEST(CliTest, DetectCommandFindsSmis) {
  std::string out;
  const int rc = run({"detect", "--smi=long", "--gap-ms=1000",
                      "--duration-s=10", "--window-ms=1000",
                      "--period-ms=1000"},
                     &out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("recall 100"), std::string::npos);
}

TEST(CliTest, RimCommandReportsPolicy) {
  std::string out;
  const int rc = run({"rim", "--scan-mb=16", "--interval-ms=1000"}, &out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("duty cycle"), std::string::npos);
  EXPECT_NE(out.find("detection latency"), std::string::npos);
  EXPECT_NE(out.find("BIOSBITS"), std::string::npos);
}

TEST(CliTest, DetectRejectsNegativeDuration) {
  expect_usage_error({"detect", "--duration-s=-5"},
                     "--duration-s must be an integer in [1, ");
}

TEST(CliTest, RimRejectsZeroNodes) {
  expect_usage_error({"rim", "--nodes=0"},
                     "--nodes must be an integer in [1, ");
}

TEST(CliTest, FaultsRejectsNegativeBytes) {
  expect_usage_error({"faults", "--nodes=2", "--iters=3", "--bytes=-100000"},
                     "--bytes must be an integer in [0, ");
}

TEST(CliTest, FaultsRejectsIterationsPastIntRange) {
  // 2^32 + 1 used to truncate to one iteration through a cast to int.
  expect_usage_error({"faults", "--nodes=2", "--iters=4294967297"},
                     "--iters must be an integer in [1, 2147483647]");
}

TEST(CliTest, FaultsRingHoldsOneChunkPerRank) {
  // The ring streams one iteration (3 actions) per rank at a time, so peak
  // residency is 4 x 3 actions however many iterations run; whole
  // programs held 4 x 5000 x 3 = 60000. The completion time is the same
  // either way.
  std::string out, err;
  EXPECT_EQ(run({"faults", "--nodes=4", "--iters=5000"}, &out, &err), 0)
      << err;
  EXPECT_NE(out.find("program actions: peak 12 materialized"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("completed in 9.0935 s"), std::string::npos) << out;
}

TEST(CliTest, TraceFlagWritesChromeJson) {
  const std::string path = ::testing::TempDir() + "/smilab_cli_trace.json";
  std::string out;
  const int rc = run({"detect", "--smi=long", "--duration-s=5",
                      ("--trace=" + path).c_str()},
                     &out);
  EXPECT_EQ(rc, 0);
  std::ifstream file{path};
  ASSERT_TRUE(file.good());
  const std::string contents{std::istreambuf_iterator<char>{file},
                             std::istreambuf_iterator<char>{}};
  EXPECT_NE(contents.find("traceEvents"), std::string::npos);
  EXPECT_NE(contents.find("SMM"), std::string::npos);
}

}  // namespace
}  // namespace smilab
