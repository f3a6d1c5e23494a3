/**
 * @file
 * Tests for include-graph extraction and the cross-file rules: module
 * layering (the module DAG), module cycles, file-level include
 * cycles, unused direct includes and orphan headers — all on
 * synthetic source sets,
 * plus the checked-in upward-include fixture that proves the layering
 * rule rejects a real injected violation.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/analyze/include_graph.h"

namespace
{

using dtrank::analyze::Finding;
using dtrank::analyze::includeEdges;
using dtrank::analyze::includeGraphFindings;
using dtrank::analyze::moduleLayer;
using dtrank::analyze::moduleOf;
using dtrank::analyze::SourceFile;

std::vector<Finding>
ofRule(const std::vector<Finding> &findings, const std::string &rule)
{
    std::vector<Finding> matching;
    for (const Finding &finding : findings)
        if (finding.rule == rule)
            matching.push_back(finding);
    return matching;
}

std::string
readFixture(const std::string &name)
{
    const std::string path =
        std::string(DTRANK_ANALYZE_FIXTURE_DIR) + "/" + name;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing fixture " << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

TEST(IncludeGraph, ModuleOfMapsSrcAndApplicationPaths)
{
    EXPECT_EQ(moduleOf("src/util/rng.h"), "util");
    EXPECT_EQ(moduleOf("src/linalg/matrix.cpp"), "linalg");
    EXPECT_EQ(moduleOf("tools/analyze/analyze.cpp"), "tools");
    EXPECT_EQ(moduleOf("bench/bench_scale.cpp"), "bench");
    EXPECT_EQ(moduleOf("tests/core/test_ranking.cpp"), "tests");
    EXPECT_EQ(moduleOf("examples/quickstart.cpp"), "examples");
}

TEST(IncludeGraph, ModuleOfRejectsUnknownPaths)
{
    EXPECT_EQ(moduleOf("README.md"), "");
    EXPECT_EQ(moduleOf("src/nonexistent/x.h"), "");
    EXPECT_EQ(moduleOf("src"), "");
}

TEST(IncludeGraph, LayerOrderMatchesTheModuleDag)
{
    EXPECT_EQ(moduleLayer("util"), 0);
    EXPECT_LT(moduleLayer("util"), moduleLayer("obs"));
    EXPECT_LT(moduleLayer("obs"), moduleLayer("simd"));
    EXPECT_LT(moduleLayer("simd"), moduleLayer("linalg"));
    EXPECT_LT(moduleLayer("linalg"), moduleLayer("stats"));
    EXPECT_LT(moduleLayer("stats"), moduleLayer("ml"));
    EXPECT_EQ(moduleLayer("ml"), moduleLayer("dataset"));
    EXPECT_LT(moduleLayer("ml"), moduleLayer("baseline"));
    EXPECT_EQ(moduleLayer("baseline"), moduleLayer("core"));
    EXPECT_LT(moduleLayer("core"), moduleLayer("experiments"));
    EXPECT_LT(moduleLayer("experiments"), moduleLayer("serve"));
    EXPECT_LT(moduleLayer("serve"), moduleLayer("tools"));
    EXPECT_EQ(moduleLayer("nonexistent"), -1);
}

TEST(IncludeGraph, EdgesExtractQuotedIncludesOnly)
{
    const SourceFile file{"src/core/x.cpp",
                          "#include <vector>\n"
                          "#include \"util/rng.h\"\n"
                          "#include \"core/ranking.h\"\n"};
    const auto edges = includeEdges(file);
    ASSERT_EQ(edges.size(), 2u);
    EXPECT_EQ(edges[0].target, "src/util/rng.h");
    EXPECT_EQ(edges[0].line, 2u);
    EXPECT_EQ(edges[1].target, "src/core/ranking.h");
    EXPECT_EQ(edges[1].line, 3u);
}

TEST(IncludeGraph, EdgesKeepExplicitTopDirPaths)
{
    const SourceFile file{"tests/lint/test_x.cpp",
                          "#include \"tools/analyze/analyze.h\"\n"};
    const auto edges = includeEdges(file);
    ASSERT_EQ(edges.size(), 1u);
    EXPECT_EQ(edges[0].target, "tools/analyze/analyze.h");
}

TEST(IncludeGraph, UpwardIncludeIsALayeringFinding)
{
    const auto findings = includeGraphFindings(
        {{"src/util/helper.cpp", "#include \"core/ranking.h\"\n"}});
    const auto layering = ofRule(findings, "layering");
    ASSERT_EQ(layering.size(), 1u);
    EXPECT_EQ(layering[0].file, "src/util/helper.cpp");
    EXPECT_EQ(layering[0].line, 1u);
    EXPECT_NE(layering[0].message.find("util"), std::string::npos);
    EXPECT_NE(layering[0].message.find("core"), std::string::npos);
}

TEST(IncludeGraph, InjectedUpwardIncludeFixtureIsRejected)
{
    // The acceptance fixture: a file that would sit in util/ and
    // reach up to core/ must be rejected by the layering rule.
    const auto bad = includeGraphFindings(
        {{"src/util/bad_helper.cpp",
          readFixture("upward_include.cpp")}});
    ASSERT_EQ(ofRule(bad, "layering").size(), 1u);
    EXPECT_EQ(ofRule(bad, "layering")[0].line, 3u);

    const auto good = includeGraphFindings(
        {{"src/core/good_helper.cpp",
          readFixture("downward_include.cpp")}});
    EXPECT_TRUE(ofRule(good, "layering").empty());
}

TEST(IncludeGraph, DownwardAndSameModuleIncludesAreClean)
{
    const auto findings = includeGraphFindings(
        {{"src/core/x.cpp", "#include \"util/rng.h\"\n"
                            "#include \"core/ranking.h\"\n"
                            "#include \"linalg/matrix.h\"\n"}});
    EXPECT_TRUE(ofRule(findings, "layering").empty());
}

TEST(IncludeGraph, ApplicationsMayIncludeEverything)
{
    const auto findings = includeGraphFindings(
        {{"tools/cli.cpp", "#include \"experiments/harness.h\"\n"
                           "#include \"util/rng.h\"\n"},
         {"bench/bench_x.cpp", "#include \"core/ranking.h\"\n"}});
    EXPECT_TRUE(ofRule(findings, "layering").empty());
}

TEST(IncludeGraph, SameLayerSingleDirectionIsClean)
{
    const auto findings = includeGraphFindings(
        {{"src/dataset/spec.cpp", "#include \"ml/knn.h\"\n"}});
    EXPECT_TRUE(ofRule(findings, "layering").empty());
}

TEST(IncludeGraph, SameLayerMutualIncludesAreAModuleCycle)
{
    const auto findings = includeGraphFindings(
        {{"src/dataset/spec.cpp", "#include \"ml/knn.h\"\n"},
         {"src/ml/knn.cpp", "#include \"dataset/spec.h\"\n"}});
    const auto layering = ofRule(findings, "layering");
    ASSERT_EQ(layering.size(), 2u); // one finding per direction
    for (const Finding &finding : layering)
        EXPECT_NE(finding.message.find("module cycle"),
                  std::string::npos);
}

TEST(IncludeGraph, FileCycleIsReportedOnce)
{
    const auto findings = includeGraphFindings(
        {{"src/util/a.h", "#pragma once\n#include \"util/b.h\"\n"},
         {"src/util/b.h", "#pragma once\n#include \"util/a.h\"\n"}});
    const auto cycles = ofRule(findings, "include-cycle");
    ASSERT_EQ(cycles.size(), 1u);
    EXPECT_NE(cycles[0].message.find("src/util/a.h"),
              std::string::npos);
    EXPECT_NE(cycles[0].message.find("src/util/b.h"),
              std::string::npos);
}

TEST(IncludeGraph, SelfIncludeIsACycle)
{
    const auto findings = includeGraphFindings(
        {{"src/util/a.h", "#pragma once\n#include \"util/a.h\"\n"}});
    EXPECT_EQ(ofRule(findings, "include-cycle").size(), 1u);
}

TEST(IncludeGraph, AcyclicChainHasNoCycleFindings)
{
    const auto findings = includeGraphFindings(
        {{"src/util/a.h", "#pragma once\n#include \"util/b.h\"\n"},
         {"src/util/b.h", "#pragma once\n#include \"util/c.h\"\n"},
         {"src/util/c.h", "#pragma once\nstruct C {};\n"}});
    EXPECT_TRUE(ofRule(findings, "include-cycle").empty());
}

TEST(IncludeGraph, UnusedIncludeFiresWhenNothingIsReferenced)
{
    const auto findings = includeGraphFindings(
        {{"src/util/user.cpp", "#include \"util/dep.h\"\n"
                               "int work() { return 2; }\n"},
         {"src/util/dep.h",
          "#pragma once\nclass Dep {};\nvoid depHelper();\n"}});
    const auto unused = ofRule(findings, "unused-include");
    ASSERT_EQ(unused.size(), 1u);
    EXPECT_EQ(unused[0].file, "src/util/user.cpp");
    EXPECT_EQ(unused[0].line, 1u);
}

TEST(IncludeGraph, UsedIncludeIsSilent)
{
    const auto findings = includeGraphFindings(
        {{"src/util/user.cpp", "#include \"util/dep.h\"\n"
                               "int work() { Dep d; return 2; }\n"},
         {"src/util/dep.h", "#pragma once\nclass Dep {};\n"}});
    EXPECT_TRUE(ofRule(findings, "unused-include").empty());
}

TEST(IncludeGraph, MacroUseCountsAsUse)
{
    const auto findings = includeGraphFindings(
        {{"src/util/user.cpp", "#include \"util/dep.h\"\n"
                               "int work() { return DEP_LIMIT; }\n"},
         {"src/util/dep.h", "#pragma once\n#define DEP_LIMIT 7\n"}});
    EXPECT_TRUE(ofRule(findings, "unused-include").empty());
}

TEST(IncludeGraph, OwnHeaderIsNeverUnused)
{
    const auto findings = includeGraphFindings(
        {{"src/util/dep.cpp", "#include \"util/dep.h\"\n"
                              "int other() { return 3; }\n"},
         {"src/util/dep.h", "#pragma once\nclass Dep {};\n"}});
    EXPECT_TRUE(ofRule(findings, "unused-include").empty());
}

TEST(IncludeGraph, HeaderOutsideTheSetGetsNoUnusedVerdict)
{
    const auto findings = includeGraphFindings(
        {{"src/util/user.cpp", "#include \"util/unseen.h\"\n"
                               "int work() { return 2; }\n"}});
    EXPECT_TRUE(ofRule(findings, "unused-include").empty());
}

TEST(IncludeGraph, UmbrellaHeaderWithNoDeclarationsGetsNoVerdict)
{
    const auto findings = includeGraphFindings(
        {{"src/util/user.cpp", "#include \"util/umbrella.h\"\n"
                               "int work() { return 2; }\n"},
         {"src/util/umbrella.h",
          "#pragma once\n#include \"util/other.h\"\n"}});
    EXPECT_TRUE(ofRule(findings, "unused-include").empty());
}

/**
 * A report module that only its own .cpp and its test include, next to
 * a header the CLI includes.
 */
std::vector<SourceFile>
reportModuleSet()
{
    return {
        {"src/experiments/markdown_report.h",
         "#pragma once\nstd::string renderTable();\n"},
        {"src/experiments/markdown_report.cpp",
         "#include \"experiments/markdown_report.h\"\n"},
        {"src/experiments/harness.h", "#pragma once\nint runSplit();\n"},
        {"tests/experiments/test_markdown_report.cpp",
         "#include \"experiments/markdown_report.h\"\n"},
        {"tools/dtrank_cli.cpp", "#include \"experiments/harness.h\"\n"}};
}

TEST(IncludeGraph, HeaderOnlyItsCppAndTestsIncludeIsAnOrphan)
{
    const auto orphans =
        ofRule(includeGraphFindings(reportModuleSet()), "orphan-header");
    ASSERT_EQ(orphans.size(), 1u);
    EXPECT_EQ(orphans[0].file, "src/experiments/markdown_report.h");
    EXPECT_EQ(orphans[0].line, 1u);
}

TEST(IncludeGraph, IncluderOutsideTheSetAdoptsAHeader)
{
    // perfbench's harness is passed as includers: not analyzed, but
    // its includes count.
    const auto findings = includeGraphFindings(
        reportModuleSet(),
        {{"perfbench/harness/offline_main.cpp",
          "#include \"experiments/markdown_report.h\"\n"}});
    EXPECT_TRUE(ofRule(findings, "orphan-header").empty());
}

TEST(IncludeGraph, LibraryFragmentGetsNoOrphanVerdict)
{
    // Without application code in the set nothing can be judged.
    const auto findings = includeGraphFindings(
        {{"src/util/dep.h", "#pragma once\nclass Dep {};\n"}});
    EXPECT_TRUE(ofRule(findings, "orphan-header").empty());
}

} // namespace
