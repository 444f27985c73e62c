// smilint self-test: the fixture corpus produces exactly the expected
// findings (file:line:column), suppressions behave (same-line, line-above,
// multi-rule, mandatory reason), the cross-file rules (D7 taint, C1
// guarded-by) and D8 fire and suppress correctly, the baseline ratchet
// gates only NEW findings, the manifest verbs do what they say, and — the
// CI invariant — the real tree is clean: zero unsuppressed violations,
// every suppression reasoned.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "smilint.h"

#ifndef SMILAB_SOURCE_ROOT
#error "SMILAB_SOURCE_ROOT must point at the repository root"
#endif

namespace {

using smilint::Baseline;
using smilint::Finding;
using smilint::Manifest;
using smilint::Report;
using smilint::Rule;
using smilint::RulePolicy;
using smilint::Severity;

const std::string kRoot = SMILAB_SOURCE_ROOT;

Report fixture_report() {
  const Manifest manifest = Manifest::parse(
      "hot-path tools/smilint/fixtures\n"
      "concurrent tools/smilint/fixtures\n");
  return smilint::run_tree(kRoot, {"tools/smilint/fixtures"}, manifest);
}

TEST(SmilintFixtureTest, CorpusFindingsExact) {
  const Report report = fixture_report();
  struct Expect {
    const char* file;
    int line;
    int column;
    Rule rule;
    bool suppressed;
  };
  // Sorted by (file, line, column, rule) — the report's order. clean.cpp
  // and d7_taint_helper.cpp (the taint SOURCE: a seed alone is not a
  // finding) contribute nothing by design.
  const std::vector<Expect> expected = {
      {"tools/smilint/fixtures/c1_guarded_by.cpp", 16, 33, Rule::kGuardedBy,
       false},
      {"tools/smilint/fixtures/c1_guarded_by.cpp", 23, 10, Rule::kGuardedBy,
       false},
      {"tools/smilint/fixtures/c1_guarded_by.cpp", 24, 7, Rule::kGuardedBy,
       false},
      {"tools/smilint/fixtures/d1_wall_clock.cpp", 8, 19, Rule::kWallClock,
       false},
      {"tools/smilint/fixtures/d1_wall_clock.cpp", 10, 3, Rule::kWallClock,
       false},
      {"tools/smilint/fixtures/d1_wall_clock.cpp", 12, 22, Rule::kWallClock,
       false},
      {"tools/smilint/fixtures/d2_rng.cpp", 7, 17, Rule::kUnseededRng, false},
      {"tools/smilint/fixtures/d2_rng.cpp", 9, 8, Rule::kUnseededRng, false},
      {"tools/smilint/fixtures/d2_rng.cpp", 10, 8, Rule::kUnseededRng, false},
      {"tools/smilint/fixtures/d3_unordered_iter.cpp", 7, 3,
       Rule::kUnorderedIter, false},
      {"tools/smilint/fixtures/d3_unordered_iter.cpp", 16, 18,
       Rule::kUnorderedIter, false},
      {"tools/smilint/fixtures/d4_std_function.cpp", 6, 3, Rule::kStdFunction,
       false},
      {"tools/smilint/fixtures/d5_new_delete.cpp", 7, 14, Rule::kRawNewDelete,
       false},
      {"tools/smilint/fixtures/d5_new_delete.cpp", 9, 5, Rule::kRawNewDelete,
       false},
      {"tools/smilint/fixtures/d5_new_delete.cpp", 15, 34,
       Rule::kRawNewDelete, false},
      {"tools/smilint/fixtures/d6_float_reduce.cpp", 10, 3,
       Rule::kUnorderedIter, false},
      {"tools/smilint/fixtures/d6_float_reduce.cpp", 11, 5, Rule::kFloatReduce,
       false},
      {"tools/smilint/fixtures/d6_float_reduce.cpp", 15, 12,
       Rule::kFloatReduce, false},
      {"tools/smilint/fixtures/d7_taint_use.cpp", 23, 29, Rule::kNondetTaint,
       false},
      {"tools/smilint/fixtures/d7_taint_use.cpp", 24, 5, Rule::kNondetTaint,
       false},
      {"tools/smilint/fixtures/d8_pointer_map.cpp", 17, 8, Rule::kPointerOrder,
       false},
      {"tools/smilint/fixtures/d8_pointer_map.cpp", 19, 14,
       Rule::kPointerOrder, false},
      {"tools/smilint/fixtures/d8_pointer_map.cpp", 21, 14,
       Rule::kPointerOrder, false},
      {"tools/smilint/fixtures/suppressed_missing_reason.cpp", 5, 1,
       Rule::kSuppression, false},
      {"tools/smilint/fixtures/suppressed_missing_reason.cpp", 6, 34,
       Rule::kUnseededRng, false},
      {"tools/smilint/fixtures/suppressed_ok.cpp", 8, 19, Rule::kWallClock,
       true},
      {"tools/smilint/fixtures/suppressed_ok.cpp", 10, 17, Rule::kUnseededRng,
       true},
      {"tools/smilint/fixtures/suppressed_ok.cpp", 13, 3, Rule::kUnorderedIter,
       true},
      {"tools/smilint/fixtures/suppressed_ok.cpp", 13, 34, Rule::kFloatReduce,
       true},
  };
  ASSERT_EQ(report.findings.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE("finding " + std::to_string(i));
    EXPECT_EQ(report.findings[i].file, expected[i].file);
    EXPECT_EQ(report.findings[i].line, expected[i].line);
    EXPECT_EQ(report.findings[i].column, expected[i].column);
    EXPECT_EQ(report.findings[i].rule, expected[i].rule);
    EXPECT_EQ(report.findings[i].suppressed, expected[i].suppressed);
    EXPECT_FALSE(report.findings[i].snippet.empty());
  }
  EXPECT_EQ(report.unsuppressed_count(), 25);
  EXPECT_EQ(report.suppressed_count(), 4);
  EXPECT_EQ(report.baselined_count(), 0);
  EXPECT_EQ(report.info_count(), 0);
}

TEST(SmilintFixtureTest, SuppressionsCarryTheirReasons) {
  const Report report = fixture_report();
  int suppressed = 0;
  for (const Finding& f : report.findings) {
    if (!f.suppressed) continue;
    ++suppressed;
    EXPECT_FALSE(f.reason.empty()) << f.file << ":" << f.line;
    EXPECT_NE(f.reason.find("fixture"), std::string::npos);
  }
  EXPECT_EQ(suppressed, 4);
}

TEST(SmilintTreeTest, RealTreeHasZeroUnsuppressedViolations) {
  const Manifest manifest =
      Manifest::load(kRoot + "/tools/smilint/smilint.rules");
  const Report report =
      smilint::run_tree(kRoot, {"src", "bench", "tools"}, manifest);
  EXPECT_GE(report.files_scanned, 100);
  for (const Finding& f : report.findings) {
    EXPECT_TRUE(f.suppressed)
        << f.file << ":" << f.line << " [" << smilint::rule_id(f.rule) << "] "
        << f.message;
    EXPECT_FALSE(f.reason.empty()) << f.file << ":" << f.line;
  }
  EXPECT_EQ(report.unsuppressed_count(), 0);
  EXPECT_EQ(report.info_count(), 0);
}

TEST(SmilintUnitTest, SameLineAndLineAboveSuppressionForms) {
  RulePolicy policy;
  const auto same_line = smilint::analyze_source(
      "x.cpp", "int f() { return rand(); }  // smilint: allow(unseeded-rng) reason=test\n",
      {}, policy);
  ASSERT_EQ(same_line.size(), 1u);
  EXPECT_TRUE(same_line[0].suppressed);
  EXPECT_EQ(same_line[0].reason, "test");

  const auto above = smilint::analyze_source(
      "x.cpp",
      "// smilint: allow(unseeded-rng) reason=test above\n"
      "int f() { return rand(); }\n",
      {}, policy);
  ASSERT_EQ(above.size(), 1u);
  EXPECT_TRUE(above[0].suppressed);
  EXPECT_EQ(above[0].reason, "test above");
}

TEST(SmilintUnitTest, SuppressionForTheWrongRuleDoesNotApply) {
  RulePolicy policy;
  const auto findings = smilint::analyze_source(
      "x.cpp", "int f() { return rand(); }  // smilint: allow(wall-clock) reason=mismatched\n",
      {}, policy);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_FALSE(findings[0].suppressed);
}

TEST(SmilintUnitTest, ReasonlessSuppressionIsItselfAFinding) {
  RulePolicy policy;
  const auto findings = smilint::analyze_source(
      "x.cpp", "int f() { return rand(); }  // smilint: allow(unseeded-rng)\n",
      {}, policy);
  ASSERT_EQ(findings.size(), 2u);
  // The S0 finding anchors at column 1 of the directive's line, so it
  // sorts ahead of the unsuppressed D2 at the rand() call site.
  EXPECT_EQ(findings[0].rule, Rule::kSuppression);
  EXPECT_EQ(findings[1].rule, Rule::kUnseededRng);
  EXPECT_FALSE(findings[1].suppressed);
}

TEST(SmilintUnitTest, FindingsCarryColumnAndSnippet) {
  RulePolicy policy;
  const auto findings = smilint::analyze_source(
      "x.cpp", "int f() { return rand(); }\n", {}, policy);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_EQ(findings[0].column, 18);  // 1-based column of `rand`
  EXPECT_EQ(findings[0].snippet, "int f() { return rand(); }");
}

TEST(SmilintUnitTest, PointerOrderFiresAndSuppresses) {
  RulePolicy policy;
  const auto findings = smilint::analyze_source(
      "x.cpp",
      "struct N { int id; };\n"
      "int f() { std::map<N*, int> m; return (int)m.size(); }\n",
      {}, policy);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, Rule::kPointerOrder);

  const auto suppressed = smilint::analyze_source(
      "x.cpp",
      "struct N { int id; };\n"
      "// smilint: allow(pointer-order) reason=freed before any output\n"
      "int f() { std::map<N*, int> m; return (int)m.size(); }\n",
      {}, policy);
  ASSERT_EQ(suppressed.size(), 1u);
  EXPECT_TRUE(suppressed[0].suppressed);
}

TEST(SmilintUnitTest, GuardedByLockScopeWithinOneTu) {
  RulePolicy policy;  // guarded_by on by default; concurrent off
  const auto findings = smilint::analyze_source(
      "x.cpp",
      "class C {\n"
      " public:\n"
      "  void locked() { const std::lock_guard<std::mutex> l{mu_}; n_ = 1; }\n"
      "  void unlocked() { n_ = 2; }\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  int n_ = 0;  // guarded_by(mu_)\n"
      "};\n",
      {}, policy);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, Rule::kGuardedBy);
  EXPECT_EQ(findings[0].line, 4);
}

TEST(SmilintUnitTest, ConcurrentPolicyRequiresAnnotations) {
  RulePolicy policy;
  policy.concurrent = true;
  const auto findings = smilint::analyze_source(
      "x.cpp",
      "class C {\n"
      "  std::mutex mu_;\n"
      "  std::atomic<int> hits_{0};\n"  // atomic: exempt
      "  int n_ = 0;\n"                 // C1: unannotated
      "};\n",
      {}, policy);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, Rule::kGuardedBy);
  EXPECT_EQ(findings[0].line, 4);
  // Without `concurrent`, annotation is optional.
  policy.concurrent = false;
  EXPECT_TRUE(smilint::analyze_source("x.cpp",
                                      "class C {\n"
                                      "  std::mutex mu_;\n"
                                      "  int n_ = 0;\n"
                                      "};\n",
                                      {}, policy)
                  .empty());
}

TEST(SmilintUnitTest, TaintFlowsFromSeedToSinkWithinOneTu) {
  RulePolicy policy;
  const auto findings = smilint::analyze_source(
      "x.cpp",
      "std::uint64_t token(const int* p) {\n"
      "  return reinterpret_cast<std::uintptr_t>(p);\n"
      "}\n"
      "struct H { std::uint64_t mix(std::uint64_t v); };\n"
      "std::uint64_t g(H& h, const int* p) {\n"
      "  const std::uint64_t t = token(p);\n"
      "  return h.mix(t);\n"
      "}\n",
      {}, policy);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, Rule::kNondetTaint);
  EXPECT_EQ(findings[0].line, 7);
  EXPECT_NE(findings[0].message.find("mix"), std::string::npos);
}

TEST(SmilintUnitTest, SanctionedSeedDoesNotTaint) {
  // A reasoned D1 suppression at the seed site is the sanction: the
  // wall-clock value must not re-surface as D7 taint downstream (this is
  // what keeps bench timers from poisoning same-named simulation code).
  RulePolicy policy;
  const auto findings = smilint::analyze_source(
      "x.cpp",
      "// smilint: allow(wall-clock) reason=host calibration only\n"
      "double now_s() { return std::chrono::x(); }\n"
      "struct H { std::uint64_t mix(std::uint64_t v); };\n"
      "std::uint64_t g(H& h) {\n"
      "  const auto t = now_s();\n"
      "  return h.mix(t);\n"
      "}\n",
      {}, policy);
  ASSERT_EQ(findings.size(), 1u);  // only the suppressed D1 itself
  EXPECT_EQ(findings[0].rule, Rule::kWallClock);
  EXPECT_TRUE(findings[0].suppressed);
}

TEST(SmilintUnitTest, TaintUnknownOnFunctionPointerEscapeIsInfo) {
  RulePolicy policy;
  const auto findings = smilint::analyze_source(
      "x.cpp",
      "int jitter() { return rand(); }\n"
      "using Fn = int (*)();\n"
      "Fn pick() { return jitter; }\n",
      {}, policy);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, Rule::kUnseededRng);
  EXPECT_EQ(findings[1].rule, Rule::kTaintUnknown);
  EXPECT_EQ(findings[1].severity, Severity::kInfo);

  Report report;
  report.findings = findings;
  EXPECT_EQ(report.unsuppressed_count(), 1);  // info never gates
  EXPECT_EQ(report.info_count(), 1);
}

TEST(SmilintUnitTest, BaselineRatchetGatesOnlyNewFindings) {
  RulePolicy policy;
  Report report;
  report.files_scanned = 1;
  report.findings = smilint::analyze_source(
      "x.cpp", "int f() { return rand(); }\n", {}, policy);
  ASSERT_EQ(report.unsuppressed_count(), 1);

  Baseline baseline = Baseline::parse(Baseline::render(report));
  EXPECT_EQ(baseline.size(), 1);
  baseline.apply(report);
  EXPECT_EQ(report.unsuppressed_count(), 0);
  EXPECT_EQ(report.baselined_count(), 1);
  EXPECT_TRUE(baseline.unmatched().empty());

  // A different violation does not match the baseline and still gates;
  // the old entry surfaces as stale.
  Report fresh;
  fresh.findings = smilint::analyze_source(
      "y.cpp", "int g(unsigned s) { srand(s); return 0; }\n", {}, policy);
  Baseline again = Baseline::parse(Baseline::render(report));
  again.apply(fresh);
  EXPECT_EQ(fresh.unsuppressed_count(), 1);
  EXPECT_EQ(fresh.baselined_count(), 0);
  EXPECT_EQ(again.unmatched().size(), 1u);
}

TEST(SmilintUnitTest, BaselineDoesNotHideASeededCorpusViolation) {
  // The acceptance criterion: baseline the whole fixture corpus, then
  // introduce a new violation — the gate must trip on exactly that one.
  Report corpus = fixture_report();
  Baseline baseline = Baseline::parse(Baseline::render(corpus));
  baseline.apply(corpus);
  EXPECT_EQ(corpus.unsuppressed_count(), 0);

  RulePolicy policy;
  auto seeded = smilint::analyze_source(
      "tools/smilint/fixtures/new_leak.cpp",
      "double f() { return std::chrono::x(); }\n", {}, policy);
  ASSERT_EQ(seeded.size(), 1u);
  corpus.findings.insert(corpus.findings.end(), seeded.begin(), seeded.end());
  baseline.apply(corpus);
  EXPECT_EQ(corpus.unsuppressed_count(), 1);
}

TEST(SmilintUnitTest, BaselineRejectsMalformedEntries) {
  EXPECT_THROW(Baseline::parse("not-a-fingerprint\n"), std::runtime_error);
  EXPECT_THROW(Baseline::parse("a.cpp|wall-clok|0123456789abcdef\n"),
               std::runtime_error);
  EXPECT_THROW(Baseline::parse("a.cpp|wall-clock|xyz\n"), std::runtime_error);
  EXPECT_EQ(Baseline::parse("# just a comment\n").size(), 0);
  EXPECT_EQ(Baseline::parse("a.cpp|wall-clock|0123456789abcdef\n").size(), 1);
}

TEST(SmilintUnitTest, ManifestVerbsShapePolicy) {
  const Manifest m = Manifest::parse(
      "skip gen/\n"
      "off bench/ wall-clock,float-reduce\n"
      "hot-path src/hot\n"
      "slab src/slab\n"
      "concurrent src/mt\n");
  EXPECT_TRUE(m.skipped("gen/x.cpp"));
  EXPECT_FALSE(m.skipped("src/x.cpp"));

  const RulePolicy bench = m.policy_for("bench/b.cpp");
  EXPECT_FALSE(bench.wall_clock);
  EXPECT_FALSE(bench.float_reduce);
  EXPECT_TRUE(bench.unseeded_rng);

  EXPECT_FALSE(m.policy_for("src/other.cpp").std_function);
  EXPECT_TRUE(m.policy_for("src/hot/a.h").std_function);
  EXPECT_TRUE(m.policy_for("src/hot/a.h").hot_path);
  EXPECT_TRUE(m.policy_for("src/other.cpp").raw_new_delete);
  EXPECT_FALSE(m.policy_for("src/slab/pool.cpp").raw_new_delete);
  EXPECT_TRUE(m.policy_for("src/mt/svc.cpp").concurrent);
  EXPECT_FALSE(m.policy_for("src/other.cpp").concurrent);

  const Manifest off = Manifest::parse("off src/ nondet-taint,guarded-by,pointer-order\n");
  const RulePolicy p = off.policy_for("src/a.cpp");
  EXPECT_FALSE(p.nondet_taint);
  EXPECT_FALSE(p.guarded_by);
  EXPECT_FALSE(p.pointer_order);
  EXPECT_FALSE(p.enabled(Rule::kTaintUnknown));  // rides with nondet-taint
}

TEST(SmilintUnitTest, ManifestRejectsTypos) {
  EXPECT_THROW(Manifest::parse("off src/ wall-clok"), std::runtime_error);
  EXPECT_THROW(Manifest::parse("enable src/ wall-clock"), std::runtime_error);
  EXPECT_THROW(Manifest::parse("off src/"), std::runtime_error);
  EXPECT_THROW(Manifest::parse("concurent src/"), std::runtime_error);
}

TEST(SmilintUnitTest, DisabledRuleReportsNothing) {
  RulePolicy policy;
  policy.unseeded_rng = false;
  const auto findings =
      smilint::analyze_source("x.cpp", "int f() { return rand(); }\n", {},
                              policy);
  EXPECT_TRUE(findings.empty());
}

TEST(SmilintUnitTest, JsonReportCarriesTheGateFields) {
  RulePolicy policy;
  Report report;
  report.files_scanned = 1;
  report.findings = smilint::analyze_source(
      "x.cpp", "int f() { return rand(); }\n", {}, policy);
  const std::string json = smilint::to_json(report);
  EXPECT_NE(json.find("\"unsuppressed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"unseeded-rng\""), std::string::npos);
  EXPECT_NE(json.find("\"code\": \"D2\""), std::string::npos);
  EXPECT_NE(json.find("\"suppressed\": false"), std::string::npos);
  EXPECT_NE(json.find("\"column\": 18"), std::string::npos);
  EXPECT_NE(json.find("\"snippet\": \"int f() { return rand(); }\""),
            std::string::npos);
  EXPECT_NE(json.find("\"baselined\": false"), std::string::npos);
}

TEST(SmilintUnitTest, SarifReportIsWellFormedEnoughForUpload) {
  RulePolicy policy;
  Report report;
  report.files_scanned = 1;
  report.findings = smilint::analyze_source(
      "x.cpp", "int f() { return rand(); }\n", {}, policy);
  const std::string sarif = smilint::to_sarif(report);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"smilint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"unseeded-rng\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 1"), std::string::npos);
  EXPECT_NE(sarif.find("\"startColumn\": 18"), std::string::npos);
  EXPECT_NE(sarif.find("\"level\": \"error\""), std::string::npos);
}

TEST(SmilintUnitTest, PairedHeaderNamesReachTheSource) {
  RulePolicy policy;
  const auto findings = smilint::analyze_source(
      "x.cpp",
      "long walk() { long s = 0; for (const auto& kv : table_) { s += kv.second; } return s; }\n",
      "struct T { std::unordered_map<int, long> table_; };\n", policy);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, Rule::kUnorderedIter);
}

}  // namespace
