/**
 * @file
 * Tests for the dtrank_analyze rule engine: the determinism-contract
 * rules (no-fp-accumulate, no-unordered-iteration,
 * no-unguarded-static), the convention rules ported from the old
 * linter (each one's path scope, exact line and near misses),
 * suppression in both spellings, token accuracy (no firing inside
 * comments, strings or raw strings), output formats and the baseline
 * mechanism. Rule scope depends on the path, so every source is
 * analyzed as if it lived at the repo path given with it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "tools/analyze/analyze.h"

namespace
{

using dtrank::analyze::analyzeContent;
using dtrank::analyze::Finding;

std::vector<Finding>
ofRule(const std::vector<Finding> &findings, const std::string &rule)
{
    std::vector<Finding> matching;
    for (const Finding &finding : findings)
        if (finding.rule == rule)
            matching.push_back(finding);
    return matching;
}

// The rules ported from the retired dtrank_lint linter, in its order.
const std::vector<std::string> &
portedRules()
{
    static const std::vector<std::string> rules = {
        "no-raw-rand",  "no-cout-in-src",    "no-float-kernel",
        "no-naked-new", "no-std-mutex",      "no-raw-intrinsics",
        "no-raw-clock", "pragma-once",
    };
    return rules;
}

// ---------------------------------------------------------- fp-accumulate

TEST(AnalyzeRules, FpAccumulateFiresInsideABracedLoop)
{
    const auto findings =
        analyzeContent("src/core/x.cpp",
                       "double f(int n) {\n"
                       "  double acc = 0.0;\n"
                       "  for (int i = 0; i < n; ++i) {\n"
                       "    acc += 1.0;\n"
                       "  }\n"
                       "  return acc;\n"
                       "}\n");
    const auto hits = ofRule(findings, "no-fp-accumulate");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].line, 4u);
}

TEST(AnalyzeRules, FpAccumulateFiresInASingleStatementBody)
{
    const auto findings = analyzeContent(
        "src/core/x.cpp",
        "double f(int n) {\n"
        "  double acc = 0.0;\n"
        "  for (int i = 0; i < n; ++i) acc += 1.0;\n"
        "  return acc;\n"
        "}\n");
    ASSERT_EQ(ofRule(findings, "no-fp-accumulate").size(), 1u);
}

TEST(AnalyzeRules, FpAccumulateFiresInWhileAndDoLoops)
{
    const auto findings =
        analyzeContent("src/core/x.cpp",
                       "double f() {\n"
                       "  double a = 0.0, b = 0.0;\n"
                       "  while (a < 3.0) { a += 1.0; }\n"
                       "  do { b -= 1.0; } while (b > -3.0);\n"
                       "  return a + b;\n"
                       "}\n");
    EXPECT_EQ(ofRule(findings, "no-fp-accumulate").size(), 2u);
}

TEST(AnalyzeRules, FpAccumulateSilentOutsideLoops)
{
    const auto findings =
        analyzeContent("src/core/x.cpp",
                       "double f(double x) {\n"
                       "  double acc = 0.0;\n"
                       "  acc += x;\n"
                       "  return acc;\n"
                       "}\n");
    EXPECT_TRUE(ofRule(findings, "no-fp-accumulate").empty());
}

TEST(AnalyzeRules, FpAccumulateSilentForElementwiseStores)
{
    // a[i] += ... is element-wise, not a reduction.
    const auto findings = analyzeContent(
        "src/core/x.cpp",
        "void f(double *a, int n) {\n"
        "  for (int i = 0; i < n; ++i) a[i] += 1.0;\n"
        "}\n");
    EXPECT_TRUE(ofRule(findings, "no-fp-accumulate").empty());
}

TEST(AnalyzeRules, FpAccumulateSilentForIntegerCounters)
{
    const auto findings = analyzeContent(
        "src/core/x.cpp",
        "int f(int n) {\n"
        "  int count = 0;\n"
        "  for (int i = 0; i < n; ++i) count += 2;\n"
        "  return count;\n"
        "}\n");
    EXPECT_TRUE(ofRule(findings, "no-fp-accumulate").empty());
}

TEST(AnalyzeRules, FpAccumulateExemptsSimdAndNonSrc)
{
    const std::string loop = "double f(int n) {\n"
                             "  double acc = 0.0;\n"
                             "  for (int i = 0; i < n; ++i) acc += 1.0;\n"
                             "  return acc;\n"
                             "}\n";
    EXPECT_TRUE(
        ofRule(analyzeContent("src/simd/kernels_scalar.cpp", loop),
               "no-fp-accumulate")
            .empty());
    EXPECT_TRUE(ofRule(analyzeContent("tools/foo.cpp", loop),
                       "no-fp-accumulate")
                    .empty());
    EXPECT_TRUE(ofRule(analyzeContent("bench/bench_foo.cpp", loop),
                       "no-fp-accumulate")
                    .empty());
}

// ---------------------------------------------- unordered-iteration

TEST(AnalyzeRules, UnorderedRangeForFires)
{
    const auto findings = analyzeContent(
        "src/core/x.cpp",
        "#include <unordered_map>\n"
        "int f(const std::unordered_map<int, int> &m) {\n"
        "  int s = 0;\n"
        "  for (const auto &kv : m) s += kv.second;\n"
        "  return s;\n"
        "}\n");
    const auto hits = ofRule(findings, "no-unordered-iteration");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].line, 4u);
}

TEST(AnalyzeRules, UnorderedBeginFires)
{
    const auto findings = analyzeContent(
        "src/core/x.cpp",
        "#include <unordered_set>\n"
        "int f(const std::unordered_set<int> &s) {\n"
        "  return *s.begin();\n"
        "}\n");
    ASSERT_EQ(ofRule(findings, "no-unordered-iteration").size(), 1u);
}

TEST(AnalyzeRules, UnorderedLookupsAreSilent)
{
    const auto findings = analyzeContent(
        "src/core/x.cpp",
        "#include <unordered_map>\n"
        "int f(std::unordered_map<int, int> &m) {\n"
        "  m[1] = 2;\n"
        "  return m.at(1) + static_cast<int>(m.count(7));\n"
        "}\n");
    EXPECT_TRUE(ofRule(findings, "no-unordered-iteration").empty());
}

TEST(AnalyzeRules, OrderedMapIterationIsSilent)
{
    const auto findings = analyzeContent(
        "src/core/x.cpp",
        "#include <map>\n"
        "int f(const std::map<int, int> &m) {\n"
        "  int s = 0;\n"
        "  for (const auto &kv : m) s += kv.second;\n"
        "  return s;\n"
        "}\n");
    EXPECT_TRUE(ofRule(findings, "no-unordered-iteration").empty());
}

// ------------------------------------------------- unguarded-static

TEST(AnalyzeRules, UnguardedStaticFires)
{
    const auto findings = analyzeContent(
        "src/core/x.cpp",
        "#include <vector>\n"
        "std::vector<int> &cache() {\n"
        "  static std::vector<int> entries;\n"
        "  return entries;\n"
        "}\n");
    const auto hits = ofRule(findings, "no-unguarded-static");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].line, 3u);
}

TEST(AnalyzeRules, GuardedStaticsAreSilent)
{
    const auto findings = analyzeContent(
        "src/core/x.cpp",
        "#include <atomic>\n"
        "int f() {\n"
        "  static const int k_table[] = {1, 2};\n"
        "  static constexpr double k_eps = 1e-9;\n"
        "  static thread_local int scratch = 0;\n"
        "  static std::atomic<int> hits{0};\n"
        "  return k_table[0] + scratch + hits.load() +\n"
        "         static_cast<int>(k_eps);\n"
        "}\n");
    EXPECT_TRUE(ofRule(findings, "no-unguarded-static").empty());
}

TEST(AnalyzeRules, MutexGuardedStaticIsSilent)
{
    const auto findings = analyzeContent(
        "src/core/x.cpp",
        "#include \"util/mutex.h\"\n"
        "int f() {\n"
        "  static util::Mutex mu;\n"
        "  static int shared DTRANK_GUARDED_BY(mu) = 0;\n"
        "  return shared;\n"
        "}\n");
    EXPECT_TRUE(ofRule(findings, "no-unguarded-static").empty());
}

TEST(AnalyzeRules, StaticFunctionDeclarationsAreSilent)
{
    const auto findings = analyzeContent(
        "src/core/x.cpp",
        "static int helper(int x) { return x + 1; }\n"
        "static int forward(int x);\n");
    EXPECT_TRUE(ofRule(findings, "no-unguarded-static").empty());
}

TEST(AnalyzeRules, FileScopeGlobalWithoutStaticFires)
{
    const auto findings =
        analyzeContent("src/core/x.cpp",
                       "namespace dtrank {\n"
                       "namespace {\n"
                       "int g_counter = 0;\n"
                       "}\n"
                       "}\n");
    const auto hits = ofRule(findings, "no-unguarded-static");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].line, 3u);
}

TEST(AnalyzeRules, NamespaceScopeFunctionsAndTypesAreSilent)
{
    const auto findings = analyzeContent(
        "src/core/x.cpp",
        "namespace dtrank {\n"
        "struct Point { int x; int y; };\n"
        "int add(int a, int b) { return a + b; }\n"
        "const int k_limit = 8;\n"
        "constexpr double k_eps = 1e-9;\n"
        "using Row = Point;\n"
        "namespace fs = Row_is_not_a_namespace_but_parses;\n"
        "}\n");
    EXPECT_TRUE(ofRule(findings, "no-unguarded-static").empty());
}

TEST(AnalyzeRules, LocalVariablesInFunctionBodiesAreSilent)
{
    const auto findings = analyzeContent(
        "src/core/x.cpp",
        "int work(int n) {\n"
        "  int total = 0;\n"
        "  std::vector<int> scratch;\n"
        "  return total + static_cast<int>(scratch.size()) + n;\n"
        "}\n");
    EXPECT_TRUE(ofRule(findings, "no-unguarded-static").empty());
}

// ------------------------------------------ convention rules (ported)
// The DtrankLint suite: the cases of the retired dtrank_lint linter,
// under their old names, now run through the engine on inline sources.

TEST(DtrankLint, RawRandFixtureFiresWithExactLocation)
{
    const auto findings =
        analyzeContent("src/core/bad.cpp",
                       "// one no-raw-rand violation, on line 4\n"
                       "#include <cstdlib>\n"
                       "\n"
                       "int badSeed() { return std::rand(); }\n");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "no-raw-rand");
    EXPECT_EQ(findings[0].file, "src/core/bad.cpp");
    EXPECT_EQ(findings[0].line, 4u);
}

TEST(DtrankLint, TimeSeedAndBareRandAreCaught)
{
    const auto findings = ofRule(
        analyzeContent("src/core/bad.cpp",
                       "unsigned a = rand();\nauto seed = time(nullptr);\n"),
        "no-raw-rand");
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_EQ(findings[0].line, 1u);
    EXPECT_EQ(findings[1].line, 2u);
}

TEST(DtrankLint, RngHeaderIsExemptFromRawRand)
{
    const std::string engine = "std::mt19937_64 engine_;\n";
    EXPECT_TRUE(ofRule(analyzeContent("src/util/rng.h",
                                      "#pragma once\n" + engine),
                       "no-raw-rand")
                    .empty());
    EXPECT_EQ(
        ofRule(analyzeContent("src/ml/mlp.cpp", engine), "no-raw-rand")
            .size(),
        1u);
}

TEST(DtrankLint, CoutFixtureFiresOnlyUnderSrc)
{
    const std::string report = "#include <iostream>\n"
                               "\n"
                               "void\n"
                               "report()\n"
                               "{\n"
                               "    std::cout << \"done\\n\";\n"
                               "}\n";
    const auto in_src = analyzeContent("src/core/bad.cpp", report);
    ASSERT_EQ(in_src.size(), 1u);
    EXPECT_EQ(in_src[0].rule, "no-cout-in-src");
    EXPECT_EQ(in_src[0].line, 6u);

    // Benches and tools legitimately print results to stdout.
    EXPECT_TRUE(analyzeContent("bench/bench_foo.cpp", report).empty());
    EXPECT_TRUE(analyzeContent("tools/foo.cpp", report).empty());
}

TEST(DtrankLint, FloatFixtureFiresOnlyInNumericKernels)
{
    const std::string kernel =
        "float halfPrecision(float a) { return a; }\n";
    for (const std::string dir : {"linalg", "stats", "ml", "simd"}) {
        const auto findings =
            analyzeContent("src/" + dir + "/bad.cpp", kernel);
        ASSERT_EQ(findings.size(), 1u) << dir;
        EXPECT_EQ(findings[0].rule, "no-float-kernel");
        EXPECT_EQ(findings[0].line, 1u);
    }
    // The rule covers every TU under a kernel dir, including the
    // AVX-512 kernel table.
    const auto avx512_tu =
        analyzeContent("src/simd/kernels_avx512.cpp", kernel);
    ASSERT_EQ(avx512_tu.size(), 1u);
    EXPECT_EQ(avx512_tu[0].rule, "no-float-kernel");

    // float is allowed outside the numeric kernels (e.g. dataset I/O).
    EXPECT_TRUE(analyzeContent("src/dataset/ok.cpp", kernel).empty());
}

TEST(DtrankLint, MissingPragmaOnceFixtureFires)
{
    const std::string header = "// no include guard\n"
                               "\n"
                               "inline int answer() { return 42; }\n";
    const auto findings = analyzeContent("src/core/bad.h", header);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "pragma-once");
    EXPECT_EQ(findings[0].line, 1u);

    // The same content as a .cpp is fine.
    EXPECT_TRUE(analyzeContent("src/core/ok.cpp", header).empty());
}

TEST(DtrankLint, NakedNewFixtureFiresButDeletedCtorDoesNot)
{
    const auto findings =
        analyzeContent("src/core/bad.cpp",
                       "struct Buffer\n"
                       "{\n"
                       "    double *data = new double[4];\n"
                       "    Buffer(const Buffer &) = delete;\n"
                       "};\n");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "no-naked-new");
    EXPECT_EQ(findings[0].line, 3u);
}

TEST(DtrankLint, StdMutexFixtureFiresOutsideTheWrapper)
{
    // The <mutex> include itself is not the violation; naming the std
    // primitive is.
    const std::string lock = "#include <mutex>\n"
                             "\n"
                             "std::mutex g_lock;\n";
    const auto findings =
        ofRule(analyzeContent("src/core/bad.cpp", lock), "no-std-mutex");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 3u);

    // The annotated wrapper itself is the one allowed user.
    EXPECT_TRUE(
        ofRule(analyzeContent("src/util/mutex.h", lock), "no-std-mutex")
            .empty());
}

TEST(DtrankLint, RawIntrinsicsFixtureFiresEverywhereButSimd)
{
    const std::string code = "#include <immintrin.h>\n"
                             "\n"
                             "void doubleInPlace(double *a)\n"
                             "{\n"
                             "    __m256d v = _mm256_loadu_pd(a);\n"
                             "    _mm256_storeu_pd(a, _mm256_add_pd(v, v));\n"
                             "}\n";
    const auto findings = analyzeContent("src/ml/bad.cpp", code);
    ASSERT_EQ(findings.size(), 3u);
    for (const Finding &finding : findings)
        EXPECT_EQ(finding.rule, "no-raw-intrinsics");
    EXPECT_EQ(findings[0].line, 1u); // the <immintrin.h> include
    EXPECT_EQ(findings[1].line, 5u); // __m256d + _mm256_loadu_pd
    EXPECT_EQ(findings[2].line, 6u); // _mm256_storeu_pd

    // The rule fires outside src/ too: benches and tools must also go
    // through the dispatch layer.
    EXPECT_FALSE(analyzeContent("bench/bench_foo.cpp", code).empty());

    // The dispatch library is the one home for intrinsics.
    EXPECT_TRUE(
        analyzeContent("src/simd/kernels_avx2.cpp", code).empty());
}

TEST(DtrankLint, Avx512IntrinsicsFixtureFiresOutsideSimd)
{
    const std::string code =
        "void scaleInPlace(double *a)\n"
        "{\n"
        "    __m512d v = _mm512_mul_pd(_mm512_loadu_pd(a), "
        "_mm512_set1_pd(2.0));\n"
        "    _mm512_storeu_pd(a, v);\n"
        "}\n";
    const auto findings = analyzeContent("src/ml/bad.cpp", code);
    ASSERT_EQ(findings.size(), 2u);
    for (const Finding &finding : findings)
        EXPECT_EQ(finding.rule, "no-raw-intrinsics");
    EXPECT_EQ(findings[0].line, 3u); // __m512d + _mm512_mul_pd/loadu
    EXPECT_EQ(findings[1].line, 4u); // _mm512_storeu_pd

    EXPECT_FALSE(analyzeContent("tools/foo.cpp", code).empty());
    EXPECT_TRUE(
        analyzeContent("src/simd/kernels_avx512.cpp", code).empty());
}

TEST(DtrankLint, IntrinsicLikeSubstringsInsideIdentifiersAreIgnored)
{
    EXPECT_TRUE(ofRule(analyzeContent("src/core/ok.cpp",
                                      "int custom_mm256_shim = 0;\n"
                                      "// _mm256_add_pd in a comment\n"
                                      "const char *s = \"immintrin.h\";\n"),
                       "no-raw-intrinsics")
                    .empty());
}

TEST(DtrankLint, RawClockFixtureFiresOutsideObsAndBench)
{
    const std::string code =
        "#include <chrono>\n"
        "\n"
        "void\n"
        "timeSomething()\n"
        "{\n"
        "    const auto t0 = std::chrono::steady_clock::now();\n"
        "    const auto t1 = std::chrono::high_resolution_clock::now();\n"
        "}\n";
    const auto findings = analyzeContent("src/core/bad.cpp", code);
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_EQ(findings[0].rule, "no-raw-clock");
    EXPECT_EQ(findings[0].line, 6u); // steady_clock::now()
    EXPECT_EQ(findings[1].rule, "no-raw-clock");
    EXPECT_EQ(findings[1].line, 7u); // high_resolution_clock::now()

    // The clock shim itself, the observability layer and the benches
    // are the allowed users.
    EXPECT_TRUE(
        ofRule(analyzeContent("src/util/clock.h", code), "no-raw-clock")
            .empty());
    EXPECT_TRUE(analyzeContent("src/obs/clock_extra.cpp", code).empty());
    EXPECT_TRUE(analyzeContent("bench/bench_foo.cpp", code).empty());
}

TEST(DtrankLint, CleanFixtureIsSilentEvenInKernelDirs)
{
    const std::string near_misses =
        "// Mentions that must not trip anything: std::rand in this\n"
        "// comment, a float here, new and delete words, std::mutex.\n"
        "#include <chrono>\n"
        "#include <string>\n"
        "\n"
        "/* block comment with std::cout << \"x\"; and time(nullptr) */\n"
        "\n"
        "struct Clean\n"
        "{\n"
        "    Clean(const Clean &) = delete;\n"
        "    int operand = 0;          // 'rand' inside an identifier\n"
        "    int newSize = 1;          // 'new' inside an identifier\n"
        "    std::string banner =\n"
        "        \"std::cout << std::rand(); float x; "
        "steady_clock::now();\";\n"
        "    int steady_clockwork = 0; // 'steady_clock' inside one\n"
        "};\n";
    EXPECT_TRUE(analyzeContent("src/linalg/ok.cpp", near_misses).empty());
    EXPECT_TRUE(analyzeContent("src/core/ok.cpp", near_misses).empty());
}

TEST(DtrankLint, SuppressionCoversAllThreeForms)
{
    // The same-line form, the comment-above form and the bare
    // (all-rules) form, in the old linter's spelling.
    const auto findings = analyzeContent(
        "src/ml/ok.cpp",
        "#include <cstdlib>\n"
        "\n"
        "int seeded() { return std::rand(); } "
        "// dtrank-lint-ignore(no-raw-rand)\n"
        "\n"
        "// dtrank-lint-ignore(no-std-mutex): the comment-above form\n"
        "std::mutex g_lock;\n"
        "\n"
        "// dtrank-lint-ignore\n"
        "float g_tolerance = 0.0f;\n");
    for (const std::string rule :
         {"no-raw-rand", "no-std-mutex", "no-float-kernel"})
        EXPECT_TRUE(ofRule(findings, rule).empty()) << rule;
}

TEST(DtrankLint, SuppressionForADifferentRuleDoesNotApply)
{
    const auto findings = analyzeContent(
        "src/core/bad.cpp",
        "int x = std::rand(); // dtrank-lint-ignore(no-std-mutex)\n");
    EXPECT_EQ(ofRule(findings, "no-raw-rand").size(), 1u);
}

TEST(DtrankLint, ViolationsInCommentsAndStringsAreIgnored)
{
    EXPECT_TRUE(analyzeContent("src/core/ok.cpp",
                               "// std::rand() in a comment\n"
                               "/* std::mutex in a block */\n"
                               "const char *s = \"std::cout\";\n")
                    .empty());
}

TEST(DtrankLint, RuleCatalogIsComplete)
{
    // The ported rules lead the engine's catalog, in the old order.
    auto ids = dtrank::analyze::ruleIds();
    ASSERT_GE(ids.size(), portedRules().size());
    ids.resize(portedRules().size());
    EXPECT_EQ(ids, portedRules());
}

TEST(DtrankLint, FormatFindingIsEditorParsable)
{
    // A real finding from a ported rule renders as file:line: [rule].
    const auto findings =
        analyzeContent("src/a.cpp", "\n\nint f() { return rand(); }\n");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(dtrank::analyze::formatFinding(findings[0]),
              "src/a.cpp:3: [no-raw-rand] " + findings[0].message);
}

TEST(DtrankLint, RepositoryTreeIsLintClean)
{
    // The ported rules hold on the whole tree with no baseline at all;
    // only the determinism-contract rules have tracked findings.
    const auto findings = dtrank::analyze::analyzeTree(
        DTRANK_REPO_ROOT, {"src", "tools", "bench", "tests", "examples"});
    for (const Finding &finding : findings)
        if (std::find(portedRules().begin(), portedRules().end(),
                      finding.rule) != portedRules().end())
            ADD_FAILURE() << dtrank::analyze::formatFinding(finding);
}

// ----------------------------------------------------- suppression

TEST(AnalyzeRules, AnalyzeIgnoreSuppressesOnTheLine)
{
    const auto findings = analyzeContent(
        "src/core/x.cpp",
        "int &cache() {\n"
        "  // dtrank-analyze-ignore(no-unguarded-static): registry\n"
        "  static int entry = 0;\n"
        "  return entry;\n"
        "}\n");
    EXPECT_TRUE(ofRule(findings, "no-unguarded-static").empty());
}

TEST(AnalyzeRules, LegacyIgnoreSpellingSuppressesNewRules)
{
    const auto findings = analyzeContent(
        "src/core/x.cpp",
        "int &cache() {\n"
        "  static int entry = 0; // dtrank-lint-ignore\n"
        "  return entry;\n"
        "}\n");
    EXPECT_TRUE(ofRule(findings, "no-unguarded-static").empty());
}

TEST(AnalyzeRules, SuppressionForAnotherRuleDoesNotApply)
{
    const auto findings = analyzeContent(
        "src/core/x.cpp",
        "int &cache() {\n"
        "  static int entry = 0; // dtrank-analyze-ignore(layering)\n"
        "  return entry;\n"
        "}\n");
    EXPECT_EQ(ofRule(findings, "no-unguarded-static").size(), 1u);
}

// ------------------------------------- token accuracy (regressions)

TEST(AnalyzeRules, RulesDoNotFireInCommentsOrStrings)
{
    const auto findings = analyzeContent(
        "src/linalg/x.cpp",
        "// float in a comment, acc += 1.0 too\n"
        "/* static int g_bad; std::rand(); */\n"
        "const char *s = \"float static steady_clock\";\n");
    EXPECT_TRUE(findings.empty());
}

TEST(AnalyzeRules, RulesDoNotFireInRawStrings)
{
    // The old regex linter had no raw-string support at all; the
    // token engine must treat the body as opaque text.
    const auto findings = analyzeContent(
        "src/linalg/x.cpp",
        "const char *s = R\"(float x; static int g; rand();)\";\n");
    EXPECT_TRUE(findings.empty());
}

TEST(AnalyzeRules, LineContinuationCannotHideAViolation)
{
    // `flo\<newline>at` is the token `float`: invisible to a
    // line-based regex, caught by the lexer.
    const auto findings =
        analyzeContent("src/linalg/x.cpp", "flo\\\nat x = 0.f;\n");
    ASSERT_EQ(ofRule(findings, "no-float-kernel").size(), 1u);
}

TEST(AnalyzeRules, LegacyRulesStillFireOnRealCode)
{
    const auto findings = analyzeContent(
        "src/core/x.cpp",
        "#include <mutex>\n"
        "std::mutex g_mu; // dtrank-analyze-ignore(no-unguarded-static)\n"
        "int seed = static_cast<int>(time(nullptr));\n");
    EXPECT_EQ(ofRule(findings, "no-std-mutex").size(), 1u);
    EXPECT_EQ(ofRule(findings, "no-raw-rand").size(), 1u);
}

// --------------------------------------------- catalogs and outputs

TEST(AnalyzeRules, FullCatalogAddsTheCrossFileAndContractRules)
{
    const auto ids = dtrank::analyze::ruleIds();
    for (const std::string rule :
         {"layering", "include-cycle", "unused-include",
          "no-fp-accumulate", "no-unordered-iteration",
          "no-unguarded-static"})
        EXPECT_NE(std::find(ids.begin(), ids.end(), rule), ids.end())
            << rule;
}

TEST(AnalyzeRules, LegacyRuleCatalogMatchesTheOldLinter)
{
    // Every rule of the old linter's catalog is still enforced: one
    // minimal violation per rule, in the catalog's order.
    struct Case
    {
        std::string rule;
        std::string path;
        std::string content;
    };
    const std::vector<Case> cases = {
        {"no-raw-rand", "src/core/x.cpp", "int f() { return rand(); }\n"},
        {"no-cout-in-src", "src/core/x.cpp",
         "void f() { std::cout << 1; }\n"},
        {"no-float-kernel", "src/ml/x.cpp", "float f() { return 0; }\n"},
        {"no-naked-new", "src/core/x.cpp",
         "int *f() { return new int; }\n"},
        {"no-std-mutex", "src/core/x.cpp", "void f() { std::mutex m; }\n"},
        {"no-raw-intrinsics", "src/ml/x.cpp", "#include <immintrin.h>\n"},
        {"no-raw-clock", "src/core/x.cpp",
         "void f() { auto t = std::chrono::steady_clock::now(); }\n"},
        {"pragma-once", "src/core/x.h", "int f();\n"},
    };
    std::vector<std::string> rules;
    for (const Case &c : cases) {
        rules.push_back(c.rule);
        EXPECT_EQ(ofRule(analyzeContent(c.path, c.content), c.rule).size(),
                  1u)
            << c.rule;
    }
    EXPECT_EQ(rules, portedRules());
}

TEST(AnalyzeRules, JsonOutputEscapesAndCounts)
{
    const std::vector<Finding> findings = {
        {"layering", "src/a\"b.cpp", 3, "line1\nline2"}};
    const std::string json = dtrank::analyze::toJson(findings);
    EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
    EXPECT_NE(json.find("src/a\\\"b.cpp"), std::string::npos);
    EXPECT_NE(json.find("line1\\nline2"), std::string::npos);
}

TEST(AnalyzeRules, SarifOutputCarriesRuleFileAndLine)
{
    const std::vector<Finding> findings = {
        {"no-fp-accumulate", "src/ml/mlp.cpp", 42, "msg"}};
    const std::string sarif = dtrank::analyze::toSarif(findings);
    EXPECT_NE(sarif.find("\"version\": \"2.1.0\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"ruleId\": \"no-fp-accumulate\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"uri\": \"src/ml/mlp.cpp\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"startLine\": 42"), std::string::npos);
    EXPECT_NE(sarif.find("dtrank_analyze"), std::string::npos);
}

TEST(AnalyzeRules, EmptyOutputsAreStillWellFormed)
{
    EXPECT_NE(dtrank::analyze::toJson({}).find("\"count\": 0"),
              std::string::npos);
    EXPECT_NE(dtrank::analyze::toSarif({}).find("\"results\": []"),
              std::string::npos);
}

TEST(AnalyzeRules, BaselineRoundTripFiltersTrackedFindings)
{
    const std::vector<Finding> findings = {
        {"no-fp-accumulate", "src/ml/mlp.cpp", 384, "msg"},
        {"no-unguarded-static", "src/obs/trace.cpp", 48, "msg"}};
    const std::string rendered =
        dtrank::analyze::renderBaseline(findings);
    const auto keys = dtrank::analyze::parseBaseline(rendered);
    EXPECT_EQ(keys.size(), 2u);
    EXPECT_TRUE(
        dtrank::analyze::filterBaselined(findings, keys).empty());
}

TEST(AnalyzeRules, BaselineFiltersOnlyExactKeys)
{
    const std::vector<Finding> tracked = {
        {"no-fp-accumulate", "src/ml/mlp.cpp", 384, "msg"}};
    const auto keys = dtrank::analyze::parseBaseline(
        "# comment\nno-fp-accumulate src/ml/mlp.cpp:384\n");
    EXPECT_TRUE(
        dtrank::analyze::filterBaselined(tracked, keys).empty());

    // A different line on the same file is a new finding.
    const std::vector<Finding> moved = {
        {"no-fp-accumulate", "src/ml/mlp.cpp", 385, "msg"}};
    EXPECT_EQ(dtrank::analyze::filterBaselined(moved, keys).size(),
              1u);
}

TEST(AnalyzeRules, FormatFindingIsEditorParsable)
{
    EXPECT_EQ(dtrank::analyze::formatFinding(
                  {"layering", "src/util/x.cpp", 7, "msg"}),
              "src/util/x.cpp:7: [layering] msg");
}

} // namespace
