/**
 * @file
 * Unit tests for the PerfDatabase container.
 */

#include <cmath>
#include <cstdio>
#include <limits>

#include <gtest/gtest.h>

#include "dataset/perf_database.h"
#include "util/error.h"

namespace
{

using namespace dtrank;
using dataset::BenchmarkDomain;
using dataset::BenchmarkInfo;
using dataset::MachineInfo;
using dataset::PerfDatabase;

PerfDatabase
makeSmallDb()
{
    std::vector<BenchmarkInfo> benchmarks = {
        {"alpha", BenchmarkDomain::Integer, "C", "Area A"},
        {"beta", BenchmarkDomain::FloatingPoint, "C++", "Area B"},
        {"gamma", BenchmarkDomain::Integer, "Fortran", "Area C"},
    };
    std::vector<MachineInfo> machines;
    MachineInfo m1{"VendorX", "FamX", "NickA", "isa1", 2007, 0};
    MachineInfo m2{"VendorX", "FamX", "NickA", "isa1", 2007, 1};
    MachineInfo m3{"VendorY", "FamY", "NickB", "isa2", 2009, 0};
    machines = {m1, m2, m3};
    linalg::Matrix scores{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
    return PerfDatabase(std::move(benchmarks), std::move(machines),
                        std::move(scores));
}

TEST(PerfDatabase, BasicAccessors)
{
    const PerfDatabase db = makeSmallDb();
    EXPECT_EQ(db.benchmarkCount(), 3u);
    EXPECT_EQ(db.machineCount(), 3u);
    EXPECT_DOUBLE_EQ(db.score(1, 2), 6.0);
    EXPECT_EQ(db.benchmark(0).name, "alpha");
    EXPECT_EQ(db.machine(2).family, "FamY");
    EXPECT_THROW(db.benchmark(3), util::InvalidArgument);
    EXPECT_THROW(db.machine(3), util::InvalidArgument);
    EXPECT_THROW(db.score(3, 0), util::InvalidArgument);
}

TEST(PerfDatabase, MachineNameFormat)
{
    const PerfDatabase db = makeSmallDb();
    EXPECT_EQ(db.machine(0).name(), "FamX/NickA#0");
    EXPECT_EQ(db.machine(1).name(), "FamX/NickA#1");
}

TEST(PerfDatabase, RowColumnViews)
{
    const PerfDatabase db = makeSmallDb();
    EXPECT_EQ(db.benchmarkScores(1), (std::vector<double>{4, 5, 6}));
    EXPECT_EQ(db.machineScores(0), (std::vector<double>{1, 4, 7}));
    EXPECT_THROW(db.benchmarkScores(5), util::InvalidArgument);
    EXPECT_THROW(db.machineScores(5), util::InvalidArgument);
}

TEST(PerfDatabase, BenchmarkLookup)
{
    const PerfDatabase db = makeSmallDb();
    EXPECT_EQ(db.benchmarkIndex("beta"), 1u);
    EXPECT_TRUE(db.hasBenchmark("gamma"));
    EXPECT_FALSE(db.hasBenchmark("delta"));
    EXPECT_THROW(db.benchmarkIndex("delta"), util::InvalidArgument);
}

TEST(PerfDatabase, RejectsNonPositiveScores)
{
    std::vector<BenchmarkInfo> b = {
        {"x", BenchmarkDomain::Integer, "C", ""}};
    std::vector<MachineInfo> m = {{"v", "f", "n", "i", 2000, 0}};
    EXPECT_THROW(PerfDatabase(b, m, linalg::Matrix{{0.0}}),
                 util::InvalidArgument);
    EXPECT_THROW(PerfDatabase(b, m, linalg::Matrix{{-1.0}}),
                 util::InvalidArgument);
}

TEST(PerfDatabase, RejectsNonFiniteScores)
{
    // +Inf passes a bare `> 0` check; NN^T would then silently predict
    // 0 for a target holding it.
    std::vector<BenchmarkInfo> b = {
        {"x", BenchmarkDomain::Integer, "C", ""}};
    std::vector<MachineInfo> m = {{"v", "f", "n", "i", 2000, 0},
                                  {"v", "f", "n", "i", 2000, 1}};
    const double inf = std::numeric_limits<double>::infinity();
    for (const double bad :
         {inf, -inf, std::numeric_limits<double>::quiet_NaN()})
        EXPECT_THROW(PerfDatabase(b, m, linalg::Matrix{{2.0, bad}}),
                     util::InvalidArgument)
            << bad;
}

TEST(PerfDatabase, RejectsShapeMismatch)
{
    std::vector<BenchmarkInfo> b = {
        {"x", BenchmarkDomain::Integer, "C", ""}};
    std::vector<MachineInfo> m = {{"v", "f", "n", "i", 2000, 0}};
    EXPECT_THROW(PerfDatabase(b, m, linalg::Matrix(2, 1, 1.0)),
                 util::InvalidArgument);
    EXPECT_THROW(PerfDatabase(b, m, linalg::Matrix(1, 2, 1.0)),
                 util::InvalidArgument);
}

TEST(PerfDatabase, SelectMachinesKeepsOrder)
{
    const PerfDatabase db = makeSmallDb();
    const PerfDatabase sub = db.selectMachines({2, 0});
    EXPECT_EQ(sub.machineCount(), 2u);
    EXPECT_EQ(sub.machine(0).family, "FamY");
    EXPECT_EQ(sub.machine(1).family, "FamX");
    EXPECT_DOUBLE_EQ(sub.score(0, 0), 3.0);
    EXPECT_DOUBLE_EQ(sub.score(0, 1), 1.0);
    EXPECT_THROW(db.selectMachines({9}), util::InvalidArgument);
}

TEST(PerfDatabase, MachineQueries)
{
    const PerfDatabase db = makeSmallDb();
    EXPECT_EQ(db.machineIndicesByFamily("FamX"),
              (std::vector<std::size_t>{0, 1}));
    EXPECT_TRUE(db.machineIndicesByFamily("nope").empty());
    EXPECT_EQ(db.machineIndicesByYear(2009),
              (std::vector<std::size_t>{2}));
    EXPECT_EQ(db.machineIndicesBeforeYear(2009),
              (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(db.machinesWhere([](const MachineInfo &m) {
                  return m.vendor == "VendorY";
              }),
              (std::vector<std::size_t>{2}));
}

TEST(PerfDatabase, FamiliesAndYearsSortedUnique)
{
    const PerfDatabase db = makeSmallDb();
    EXPECT_EQ(db.families(),
              (std::vector<std::string>{"FamX", "FamY"}));
}

TEST(PerfDatabase, GeometricMeans)
{
    const PerfDatabase db = makeSmallDb();
    const auto gm = db.machineGeometricMeans();
    ASSERT_EQ(gm.size(), 3u);
    EXPECT_NEAR(gm[0], std::cbrt(1.0 * 4.0 * 7.0), 1e-12);
}

TEST(PerfDatabase, CsvRoundTrip)
{
    const PerfDatabase db = makeSmallDb();
    const std::string path =
        ::testing::TempDir() + "dtrank_db_test.csv";
    db.saveCsv(path);
    const PerfDatabase loaded = PerfDatabase::loadCsv(path);
    std::remove(path.c_str());

    ASSERT_EQ(loaded.benchmarkCount(), db.benchmarkCount());
    ASSERT_EQ(loaded.machineCount(), db.machineCount());
    for (std::size_t b = 0; b < db.benchmarkCount(); ++b) {
        EXPECT_EQ(loaded.benchmark(b).name, db.benchmark(b).name);
        EXPECT_EQ(loaded.benchmark(b).domain, db.benchmark(b).domain);
        EXPECT_EQ(loaded.benchmark(b).language,
                  db.benchmark(b).language);
    }
    for (std::size_t m = 0; m < db.machineCount(); ++m) {
        EXPECT_EQ(loaded.machine(m).name(), db.machine(m).name());
        EXPECT_EQ(loaded.machine(m).releaseYear,
                  db.machine(m).releaseYear);
        EXPECT_EQ(loaded.machine(m).vendor, db.machine(m).vendor);
        EXPECT_EQ(loaded.machine(m).isa, db.machine(m).isa);
    }
    for (std::size_t b = 0; b < db.benchmarkCount(); ++b)
        for (std::size_t m = 0; m < db.machineCount(); ++m)
            EXPECT_NEAR(loaded.score(b, m), db.score(b, m), 1e-6);
}

TEST(PerfDatabase, LoadMissingFileThrows)
{
    EXPECT_THROW(PerfDatabase::loadCsv("/nonexistent/nope.csv"),
                 util::IoError);
}

} // namespace
