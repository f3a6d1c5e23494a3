/**
 * @file
 * Binary columnar on-disk format for PerfDatabase with memory-mapped
 * zero-copy loading.
 *
 * Databases at 100k machines are ~20 MB of scores; rebuilding them from
 * the generator (or reparsing CSV) per run dominates start-up. The
 * `.dtc` format stores the score matrix as column-major machine pages —
 * machine m's page is benchmarkCount() contiguous doubles — behind a
 * fixed self-describing header, so a reader can mmap the file and hand
 * out direct pointers into the page cache without copying or parsing
 * the numeric payload.
 *
 * Layout (all integers little-endian, doubles raw IEEE-754 bits):
 *
 *     offset  0  8 bytes   magic "DTRKCOL1"
 *     offset  8  u32       format version (1 = dense, 2 adds the mask)
 *     offset 12  u32       endianness tag 0x01020304
 *     offset 16  u64       benchmark count
 *     offset 24  u64       machine count
 *     offset 32  u64       metadata offset (= header size, 64)
 *     offset 40  u64       scores offset (64-byte aligned)
 *     offset 48  u64       FNV-1a hash of metadata + score + mask bytes
 *     offset 56  u64       validity-mask offset (0 = fully observed)
 *     metadata   benchmark table then machine table, length-prefixed
 *                strings (u32 length + bytes), see columnar_io.cpp
 *     padding    zero bytes up to the scores offset
 *     scores     machineCount() pages of benchmarkCount() doubles
 *     mask       (version 2, masked only) benchmarkCount() rows of
 *                ceil(machineCount() / 64) u64 words — the ScoreMask
 *                storage verbatim, directly after the scores
 *
 * Scores round-trip bit-identically because they are stored as raw
 * IEEE bits (unobserved cells hold the constructor's NaN poison, and
 * the mask words round-trip the validity bits exactly). A dense
 * database still writes a byte-identical version-1 file; version 2 is
 * emitted only when a mask is present, and readers accept both. Every
 * load validates magic, version, endianness, declared sizes against
 * the file size, metadata bounds, mask padding bits, and the payload
 * hash, so truncated or corrupted files are rejected with
 * util::IoError.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dataset/perf_database.h"

namespace dtrank::dataset
{

/** File extension conventionally used by the columnar format. */
inline constexpr const char *kColumnarExtension = ".dtc";

/** Writes the database to `path` in the columnar format. */
void saveColumnar(const PerfDatabase &db, const std::string &path);

/**
 * A columnar database file opened for reading — memory-mapped when the
 * platform supports it (POSIX mmap), otherwise read into one private
 * buffer. Metadata is parsed eagerly (it is tiny); scores stay in the
 * mapping and are served zero-copy. Move-only; the mapping lives as
 * long as the object, and pointers returned by machineColumn() are
 * invalidated by its destruction.
 */
class ColumnarDatabase
{
  public:
    /** Opens and validates `path`. @throws util::IoError on damage. */
    static ColumnarDatabase open(const std::string &path);

    ColumnarDatabase(ColumnarDatabase &&other) noexcept;
    ColumnarDatabase &operator=(ColumnarDatabase &&other) noexcept;
    ColumnarDatabase(const ColumnarDatabase &) = delete;
    ColumnarDatabase &operator=(const ColumnarDatabase &) = delete;
    ~ColumnarDatabase();

    std::size_t benchmarkCount() const { return benchmarks_.size(); }
    std::size_t machineCount() const { return machines_.size(); }
    const std::vector<BenchmarkInfo> &benchmarks() const
    {
        return benchmarks_;
    }
    const std::vector<MachineInfo> &machines() const { return machines_; }

    /**
     * Zero-copy pointer to machine m's score page: benchmarkCount()
     * contiguous doubles, one per benchmark in row order.
     */
    const double *machineColumn(std::size_t m) const;

    /** Validity mask (the dense sentinel for version-1 files). */
    const ScoreMask &mask() const { return mask_; }

    /** True when the file carries a validity-mask page. */
    bool masked() const { return !mask_.dense(); }

    /** Materializes a row-major PerfDatabase (copies the scores). */
    PerfDatabase toDatabase() const;

    /** Total bytes of the underlying file. */
    std::size_t fileBytes() const { return size_; }

    /** True when the file is served by mmap rather than a buffer. */
    bool memoryMapped() const { return mapped_; }

  private:
    ColumnarDatabase() = default;

    const unsigned char *base() const;

    std::vector<BenchmarkInfo> benchmarks_;
    std::vector<MachineInfo> machines_;
    ScoreMask mask_;
    std::vector<unsigned char> buffer_; // fallback storage
    void *map_ = nullptr;               // mmap storage
    std::size_t size_ = 0;
    std::size_t scores_offset_ = 0;
    bool mapped_ = false;
};

/** Convenience: open + materialize in one call. */
PerfDatabase loadColumnar(const std::string &path);

/** True when `path` exists and starts with the columnar magic. */
bool isColumnarFile(const std::string &path);

/**
 * Loads a database from either format: columnar when the magic
 * matches, CSV otherwise.
 */
PerfDatabase loadDatabaseAuto(const std::string &path);

} // namespace dtrank::dataset
