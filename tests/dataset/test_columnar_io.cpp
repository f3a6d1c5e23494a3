/**
 * @file
 * Unit tests for the binary columnar database format: bit-identical
 * round trips (scores are raw IEEE bits), metadata fidelity, zero-copy
 * column access, and rejection of truncated, corrupted or foreign
 * files.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dataset/columnar_io.h"
#include "dataset/scaled_spec.h"
#include "dataset/synthetic_spec.h"
#include "util/error.h"

namespace
{

using namespace dtrank;
using namespace dtrank::dataset;

/** The scaled generator's 29-benchmark dataset of `machines` machines. */
PerfDatabase
scaledDataset(std::size_t machines, std::uint64_t seed)
{
    ScaledSpecConfig config;
    config.machines = machines;
    config.seed = seed;
    return ScaledSpecGenerator(config).generate();
}

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

bool
scoresBitEqual(const PerfDatabase &a, const PerfDatabase &b)
{
    const auto &da = a.scores().data();
    const auto &db = b.scores().data();
    return da.size() == db.size() &&
           std::memcmp(da.data(), db.data(),
                       da.size() * sizeof(double)) == 0;
}

TEST(ColumnarIo, PaperDatabaseRoundTripsBitIdentically)
{
    const std::string path = tempPath("dtrank_paper.dtc");
    const PerfDatabase db = makePaperDataset(2011);
    saveColumnar(db, path);
    const PerfDatabase loaded = loadColumnar(path);
    std::remove(path.c_str());

    ASSERT_EQ(loaded.benchmarkCount(), db.benchmarkCount());
    ASSERT_EQ(loaded.machineCount(), db.machineCount());
    EXPECT_TRUE(scoresBitEqual(db, loaded));
    for (std::size_t b = 0; b < db.benchmarkCount(); ++b) {
        EXPECT_EQ(loaded.benchmark(b).name, db.benchmark(b).name);
        EXPECT_EQ(loaded.benchmark(b).domain, db.benchmark(b).domain);
        EXPECT_EQ(loaded.benchmark(b).language,
                  db.benchmark(b).language);
        EXPECT_EQ(loaded.benchmark(b).area, db.benchmark(b).area);
    }
    for (std::size_t m = 0; m < db.machineCount(); ++m) {
        EXPECT_EQ(loaded.machine(m).name(), db.machine(m).name());
        EXPECT_EQ(loaded.machine(m).vendor, db.machine(m).vendor);
        EXPECT_EQ(loaded.machine(m).isa, db.machine(m).isa);
        EXPECT_EQ(loaded.machine(m).releaseYear,
                  db.machine(m).releaseYear);
        EXPECT_EQ(loaded.machine(m).variant, db.machine(m).variant);
    }
}

TEST(ColumnarIo, ScaledDatabaseRoundTripsBitIdentically)
{
    const std::string path = tempPath("dtrank_scaled.dtc");
    const PerfDatabase db = scaledDataset(1000, 7);
    saveColumnar(db, path);
    const PerfDatabase loaded = loadColumnar(path);
    std::remove(path.c_str());
    EXPECT_TRUE(scoresBitEqual(db, loaded));
}

TEST(ColumnarIo, ZeroCopyColumnsMatchTheSource)
{
    const std::string path = tempPath("dtrank_columns.dtc");
    const PerfDatabase db = scaledDataset(200, 3);
    saveColumnar(db, path);
    const auto columnar = ColumnarDatabase::open(path);
    std::remove(path.c_str());

    ASSERT_EQ(columnar.machineCount(), db.machineCount());
    ASSERT_EQ(columnar.benchmarkCount(), db.benchmarkCount());
    for (std::size_t m = 0; m < db.machineCount(); m += 17) {
        const double *page = columnar.machineColumn(m);
        for (std::size_t b = 0; b < db.benchmarkCount(); ++b) {
            EXPECT_EQ(page[b], db.score(b, m));
        }
    }
}

TEST(ColumnarIo, IsColumnarFileDetectsTheMagic)
{
    const std::string dtc = tempPath("dtrank_magic.dtc");
    const std::string csv = tempPath("dtrank_magic.csv");
    const PerfDatabase db = makePaperDataset(2011);
    saveColumnar(db, dtc);
    db.saveCsv(csv);
    EXPECT_TRUE(isColumnarFile(dtc));
    EXPECT_FALSE(isColumnarFile(csv));
    EXPECT_FALSE(isColumnarFile(tempPath("dtrank_missing.dtc")));

    // loadDatabaseAuto dispatches on content, not extension.
    const PerfDatabase from_dtc = loadDatabaseAuto(dtc);
    const PerfDatabase from_csv = loadDatabaseAuto(csv);
    EXPECT_TRUE(scoresBitEqual(db, from_dtc));
    EXPECT_EQ(from_csv.machineCount(), db.machineCount());
    std::remove(dtc.c_str());
    std::remove(csv.c_str());
}

TEST(ColumnarIo, RejectsTruncatedFiles)
{
    const std::string path = tempPath("dtrank_trunc.dtc");
    saveColumnar(makePaperDataset(2011), path);
    auto bytes = readAll(path);
    ASSERT_GT(bytes.size(), 256u);

    // Cut mid-scores, mid-metadata, and mid-header.
    for (const std::size_t keep :
         {bytes.size() - 64, bytes.size() / 2, std::size_t{32}}) {
        writeAll(path, std::vector<char>(bytes.begin(),
                                         bytes.begin() +
                                             static_cast<long>(keep)));
        EXPECT_THROW(loadColumnar(path), util::IoError)
            << "truncation to " << keep << " bytes was accepted";
    }
    std::remove(path.c_str());
}

TEST(ColumnarIo, RejectsCorruptedScoreBytes)
{
    const std::string path = tempPath("dtrank_corrupt.dtc");
    saveColumnar(makePaperDataset(2011), path);
    auto bytes = readAll(path);
    bytes[bytes.size() - 5] ^= 0x40; // flip one payload bit
    writeAll(path, bytes);
    EXPECT_THROW(loadColumnar(path), util::IoError);
    std::remove(path.c_str());
}

TEST(ColumnarIo, RejectsCorruptedMetadata)
{
    const std::string path = tempPath("dtrank_meta.dtc");
    saveColumnar(makePaperDataset(2011), path);
    auto bytes = readAll(path);
    bytes[70] = static_cast<char>(bytes[70] + 1); // inside metadata
    writeAll(path, bytes);
    EXPECT_THROW(loadColumnar(path), util::IoError);
    std::remove(path.c_str());
}

TEST(ColumnarIo, RejectsForeignAndDamagedHeaders)
{
    const std::string path = tempPath("dtrank_foreign.dtc");
    writeAll(path, std::vector<char>(128, 'x'));
    EXPECT_THROW(loadColumnar(path), util::IoError);

    saveColumnar(makePaperDataset(2011), path);
    auto bytes = readAll(path);
    bytes[8] = 9; // unsupported version
    writeAll(path, bytes);
    EXPECT_THROW(loadColumnar(path), util::IoError);
    std::remove(path.c_str());

    EXPECT_THROW(loadColumnar(tempPath("dtrank_nonexistent.dtc")),
                 util::IoError);
}

} // namespace
