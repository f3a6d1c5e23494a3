/**
 * @file
 * The ragged-score-matrix layer: ScoreMask invariants (dense sentinel,
 * deterministic sampling with all-missing repair, padding-bit hygiene),
 * masked PerfDatabase construction with NaN poisoning, the
 * applyMissingness / imputeObserved pair, and the .dtc v2 mask page —
 * bit-identical round trips for masked databases, byte-identical
 * version-1 files for dense ones, and rejection of corrupted or
 * inconsistent mask pages.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dataset/columnar_io.h"
#include "dataset/masked_matrix.h"
#include "dataset/synthetic_spec.h"
#include "util/error.h"

namespace
{

using namespace dtrank;
using namespace dtrank::dataset;

std::string
tempPath(const std::string &stem)
{
    return ::testing::TempDir() + stem;
}

std::vector<char>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

void
writeAll(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(ScoreMask, DenseSentinelOwnsNoStorageAndAnswersValid)
{
    const ScoreMask mask;
    EXPECT_TRUE(mask.dense());
    EXPECT_TRUE(mask.words().empty());
    EXPECT_EQ(mask.rowWords(), 0u);
    EXPECT_TRUE(mask.valid(0, 0));
    EXPECT_TRUE(mask.valid(117, 29));
    // Selections of the sentinel stay the sentinel.
    EXPECT_TRUE(mask.selectRows({0, 1}).dense());
    EXPECT_TRUE(mask.selectColumns({3}).dense());
    EXPECT_TRUE(mask.selectRowsExcept(0).dense());
}

TEST(ScoreMask, MaterializedAllValidIsNotTheSentinel)
{
    const ScoreMask mask(4, 70, true);
    EXPECT_FALSE(mask.dense());
    EXPECT_EQ(mask.rowWords(), 2u);
    for (std::size_t r = 0; r < 4; ++r)
        EXPECT_EQ(mask.observedInRow(r), 70u);
    // Padding bits of the last word stay zero.
    EXPECT_EQ(mask.words()[1] >> (70 % 64), 0u);
}

TEST(ScoreMask, SampleIsDeterministicAndRepairsEmptyLines)
{
    const ScoreMask a = ScoreMask::sample(29, 117, 0.3, 7);
    const ScoreMask b = ScoreMask::sample(29, 117, 0.3, 7);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, ScoreMask::sample(29, 117, 0.3, 8));

    std::size_t observed = 0;
    for (std::size_t r = 0; r < a.rows(); ++r)
        observed += a.observedInRow(r);
    const double density =
        static_cast<double>(observed) / (29.0 * 117.0);
    EXPECT_NEAR(density, 0.7, 0.05);
    EXPECT_NO_THROW(a.requireNoEmptyLines("test"));

    // Even an extreme fraction keeps every row and column observed.
    const ScoreMask extreme = ScoreMask::sample(10, 10, 0.95, 3);
    EXPECT_NO_THROW(extreme.requireNoEmptyLines("test"));
}

TEST(ScoreMask, RequireNoEmptyLinesNamesTheOffendingLine)
{
    ScoreMask mask(3, 4, true);
    for (std::size_t c = 0; c < 4; ++c)
        mask.set(1, c, false);
    try {
        mask.requireNoEmptyLines("ctx");
        FAIL() << "all-missing row was accepted";
    } catch (const util::InvalidArgument &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "ctx: row 1 has no valid entries"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ScoreMask, FromWordsRejectsBadSizesAndPaddingBits)
{
    EXPECT_THROW(ScoreMask::fromWords(2, 70, {1, 2, 3}),
                 util::InvalidArgument);
    std::vector<std::uint64_t> words(4, 0);
    words[1] = std::uint64_t{1} << 40; // padding bit of row 0 (cols=70)
    EXPECT_THROW(ScoreMask::fromWords(2, 70, words),
                 util::InvalidArgument);
    words[1] = 0;
    EXPECT_NO_THROW(ScoreMask::fromWords(2, 70, words));
}

TEST(MaskedDatabase, ConstructorPoisonsUnobservedCellsWithNaN)
{
    const PerfDatabase dense = makePaperDataset(2011);
    const PerfDatabase masked = applyMissingness(dense, 0.3, 7);

    ASSERT_TRUE(masked.masked());
    EXPECT_FALSE(dense.masked());
    const ScoreMask expected = ScoreMask::sample(
        dense.benchmarkCount(), dense.machineCount(), 0.3, 7);
    EXPECT_EQ(masked.mask(), expected);

    for (std::size_t b = 0; b < dense.benchmarkCount(); ++b)
        for (std::size_t m = 0; m < dense.machineCount(); ++m) {
            if (masked.mask().valid(b, m))
                EXPECT_EQ(masked.score(b, m), dense.score(b, m));
            else
                EXPECT_TRUE(std::isnan(masked.score(b, m)));
        }
}

TEST(MaskedDatabase, ApplyMissingnessAtZeroFractionStaysDense)
{
    const PerfDatabase dense = makePaperDataset(2011);
    EXPECT_FALSE(applyMissingness(dense, 0.0, 7).masked());
    EXPECT_THROW(applyMissingness(dense, 1.0, 7),
                 util::InvalidArgument);
}

TEST(MaskedDatabase, RejectsAllMissingRowsWithClearMessage)
{
    const PerfDatabase dense = makePaperDataset(2011);
    ScoreMask mask(dense.benchmarkCount(), dense.machineCount(), true);
    for (std::size_t m = 0; m < dense.machineCount(); ++m)
        mask.set(2, m, false);
    try {
        PerfDatabase(dense.benchmarks(), dense.machines(),
                     dense.scores(), mask);
        FAIL() << "all-missing benchmark row was accepted";
    } catch (const util::InvalidArgument &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "row 2 has no valid entries (all-missing row)"),
                  std::string::npos)
            << e.what();
    }
}

TEST(MaskedDatabase, SelectionsCarryTheMask)
{
    const PerfDatabase masked =
        applyMissingness(makePaperDataset(2011), 0.3, 7);
    const PerfDatabase cols = masked.selectMachines({0, 5, 10, 15});
    ASSERT_TRUE(cols.masked());
    for (std::size_t b = 0; b < cols.benchmarkCount(); ++b) {
        EXPECT_EQ(cols.mask().valid(b, 1), masked.mask().valid(b, 5));
        EXPECT_EQ(cols.mask().valid(b, 3), masked.mask().valid(b, 15));
    }
}

TEST(MaskedDatabase, ImputeObservedPreservesObservedCellsBitForBit)
{
    const PerfDatabase dense = makePaperDataset(2011);
    const PerfDatabase masked = applyMissingness(dense, 0.3, 7);
    const PerfDatabase imputed = imputeObserved(masked);

    EXPECT_FALSE(imputed.masked());
    for (std::size_t b = 0; b < dense.benchmarkCount(); ++b)
        for (std::size_t m = 0; m < dense.machineCount(); ++m) {
            const double v = imputed.score(b, m);
            EXPECT_TRUE(std::isfinite(v));
            EXPECT_GT(v, 0.0);
            if (masked.mask().valid(b, m)) {
                EXPECT_EQ(v, dense.score(b, m));
            }
        }
}

TEST(MaskedColumnarIo, MaskedDatabaseRoundTripsBitIdentically)
{
    const std::string path = tempPath("dtrank_masked.dtc");
    const PerfDatabase db =
        applyMissingness(makePaperDataset(2011), 0.3, 7);
    saveColumnar(db, path);
    const PerfDatabase loaded = loadColumnar(path);
    std::remove(path.c_str());

    ASSERT_TRUE(loaded.masked());
    EXPECT_EQ(loaded.mask(), db.mask());
    const auto &da = db.scores().data();
    const auto &dl = loaded.scores().data();
    ASSERT_EQ(da.size(), dl.size());
    // memcmp, not ==: the NaN-poisoned cells must round-trip too.
    EXPECT_EQ(std::memcmp(da.data(), dl.data(),
                          da.size() * sizeof(double)),
              0);
}

TEST(MaskedColumnarIo, DenseFilesStayVersionOneWithNoMaskOffset)
{
    const std::string path = tempPath("dtrank_dense_v1.dtc");
    saveColumnar(makePaperDataset(2011), path);
    const auto bytes = readAll(path);
    std::remove(path.c_str());
    ASSERT_GT(bytes.size(), 64u);
    EXPECT_EQ(bytes[8], 1); // format version
    for (std::size_t i = 56; i < 64; ++i)
        EXPECT_EQ(bytes[i], 0) << "mask offset byte " << i;
}

TEST(MaskedColumnarIo, RejectsFlippedMaskBits)
{
    const std::string path = tempPath("dtrank_maskflip.dtc");
    saveColumnar(applyMissingness(makePaperDataset(2011), 0.3, 7),
                 path);
    auto bytes = readAll(path);
    bytes[bytes.size() - 3] ^= 0x10; // inside the trailing mask page
    writeAll(path, bytes);
    EXPECT_THROW(loadColumnar(path), util::IoError);
    std::remove(path.c_str());
}

TEST(MaskedColumnarIo, RejectsTruncatedMaskPage)
{
    const std::string path = tempPath("dtrank_masktrunc.dtc");
    saveColumnar(applyMissingness(makePaperDataset(2011), 0.3, 7),
                 path);
    const auto bytes = readAll(path);
    writeAll(path, std::vector<char>(bytes.begin(), bytes.end() - 16));
    EXPECT_THROW(loadColumnar(path), util::IoError);
    std::remove(path.c_str());
}

TEST(MaskedColumnarIo, RejectsVersionOneFileDeclaringAMask)
{
    const std::string path = tempPath("dtrank_v1mask.dtc");
    saveColumnar(makePaperDataset(2011), path);
    auto bytes = readAll(path);
    bytes[56] = 64; // dense (version 1) file with a mask offset
    writeAll(path, bytes);
    EXPECT_THROW(loadColumnar(path), util::IoError);
    std::remove(path.c_str());
}

} // namespace
