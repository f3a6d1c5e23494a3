#include "dataset/columnar_io.h"

#include <cstring>
#include <fstream>

#include "util/error.h"

#if defined(__unix__) || defined(__APPLE__)
#define DTRANK_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define DTRANK_HAVE_MMAP 0
#endif

namespace dtrank::dataset
{

namespace
{

constexpr char kMagic[8] = {'D', 'T', 'R', 'K', 'C', 'O', 'L', '1'};
// Version 1 is the dense format; version 2 appends a validity-mask
// page after the scores. Dense databases still write version 1 so
// their files stay byte-identical across the format bump.
constexpr std::uint32_t kVersionDense = 1;
constexpr std::uint32_t kVersionMasked = 2;
constexpr std::uint32_t kEndianTag = 0x01020304u;
constexpr std::size_t kHeaderBytes = 64;
constexpr std::size_t kScoresAlign = 64;
// Sanity bounds: no metadata string and no dimension is allowed past
// these, so a corrupted length field fails fast instead of driving a
// multi-gigabyte allocation.
constexpr std::uint64_t kMaxStringBytes = 1u << 20;
constexpr std::uint64_t kMaxDimension = 1u << 28;

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void
fnvUpdate(std::uint64_t &hash, const unsigned char *data, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        hash ^= static_cast<std::uint64_t>(data[i]);
        hash *= kFnvPrime;
    }
}

void
appendU32(std::vector<unsigned char> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<unsigned char>((v >> (8 * i)) & 0xff));
}

void
appendU64(std::vector<unsigned char> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<unsigned char>((v >> (8 * i)) & 0xff));
}

void
appendString(std::vector<unsigned char> &out, const std::string &s)
{
    util::require(s.size() < kMaxStringBytes,
                  "saveColumnar: metadata string too long");
    appendU32(out, static_cast<std::uint32_t>(s.size()));
    out.insert(out.end(), s.begin(), s.end());
}

std::uint64_t
readU64At(const unsigned char *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

std::uint32_t
readU32At(const unsigned char *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

[[noreturn]] void
corrupt(const std::string &path, const std::string &what)
{
    throw util::IoError("ColumnarDatabase: '" + path + "': " + what);
}

/** Bounds-checked forward reader over the metadata region. */
class MetaCursor
{
  public:
    MetaCursor(const unsigned char *data, std::size_t size,
               const std::string &path)
        : data_(data), size_(size), path_(path)
    {
    }

    std::uint32_t
    u32()
    {
        need(4);
        const std::uint32_t v = readU32At(data_ + pos_);
        pos_ += 4;
        return v;
    }

    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }

    std::string
    str()
    {
        const std::uint32_t len = u32();
        if (len >= kMaxStringBytes)
            corrupt(path_, "metadata string length out of bounds");
        need(len);
        std::string s(reinterpret_cast<const char *>(data_ + pos_), len);
        pos_ += len;
        return s;
    }

    std::size_t consumed() const { return pos_; }

  private:
    void
    need(std::size_t n)
    {
        if (size_ - pos_ < n)
            corrupt(path_, "truncated metadata table");
    }

    const unsigned char *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    const std::string &path_;
};

std::vector<unsigned char>
serializeMetadata(const PerfDatabase &db)
{
    std::vector<unsigned char> meta;
    for (const BenchmarkInfo &b : db.benchmarks()) {
        appendString(meta, b.name);
        appendU32(meta,
                  b.domain == BenchmarkDomain::Integer ? 0u : 1u);
        appendString(meta, b.language);
        appendString(meta, b.area);
    }
    for (const MachineInfo &m : db.machines()) {
        appendString(meta, m.vendor);
        appendString(meta, m.family);
        appendString(meta, m.nickname);
        appendString(meta, m.isa);
        appendU32(meta, static_cast<std::uint32_t>(m.releaseYear));
        appendU32(meta, static_cast<std::uint32_t>(m.variant));
    }
    return meta;
}

} // namespace

void
saveColumnar(const PerfDatabase &db, const std::string &path)
{
    const std::size_t n_bench = db.benchmarkCount();
    const std::size_t n_machines = db.machineCount();
    util::require(n_bench > 0 && n_machines > 0,
                  "saveColumnar: empty database");

    const std::vector<unsigned char> meta = serializeMetadata(db);
    const std::size_t meta_end = kHeaderBytes + meta.size();
    const std::size_t scores_offset =
        (meta_end + kScoresAlign - 1) / kScoresAlign * kScoresAlign;

    // Gather the machine-major score pages (raw IEEE bits) and hash
    // metadata + scores in file order.
    std::vector<unsigned char> pages(n_machines * n_bench *
                                     sizeof(double));
    const linalg::Matrix &scores = db.scores();
    for (std::size_t m = 0; m < n_machines; ++m) {
        auto *page = reinterpret_cast<double *>(
            pages.data() + m * n_bench * sizeof(double));
        for (std::size_t b = 0; b < n_bench; ++b)
            page[b] = scores(b, m);
    }
    // Masked databases append the ScoreMask words verbatim after the
    // scores; the mask bytes enter the payload hash in file order.
    std::vector<unsigned char> mask_bytes;
    std::uint64_t mask_offset = 0;
    if (db.masked()) {
        const std::vector<std::uint64_t> &words = db.mask().words();
        mask_bytes.resize(words.size() * sizeof(std::uint64_t));
        std::memcpy(mask_bytes.data(), words.data(), mask_bytes.size());
        mask_offset = scores_offset + pages.size();
    }

    std::uint64_t hash = kFnvOffset;
    fnvUpdate(hash, meta.data(), meta.size());
    fnvUpdate(hash, pages.data(), pages.size());
    fnvUpdate(hash, mask_bytes.data(), mask_bytes.size());

    std::vector<unsigned char> header;
    header.reserve(kHeaderBytes);
    header.insert(header.end(), kMagic, kMagic + sizeof(kMagic));
    appendU32(header, db.masked() ? kVersionMasked : kVersionDense);
    appendU32(header, kEndianTag);
    appendU64(header, n_bench);
    appendU64(header, n_machines);
    appendU64(header, kHeaderBytes);
    appendU64(header, scores_offset);
    appendU64(header, hash);
    appendU64(header, mask_offset);

    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        throw util::IoError("saveColumnar: cannot open '" + path +
                            "' for writing");
    out.write(reinterpret_cast<const char *>(header.data()),
              static_cast<std::streamsize>(header.size()));
    out.write(reinterpret_cast<const char *>(meta.data()),
              static_cast<std::streamsize>(meta.size()));
    const std::vector<char> pad(scores_offset - meta_end, 0);
    out.write(pad.data(), static_cast<std::streamsize>(pad.size()));
    out.write(reinterpret_cast<const char *>(pages.data()),
              static_cast<std::streamsize>(pages.size()));
    out.write(reinterpret_cast<const char *>(mask_bytes.data()),
              static_cast<std::streamsize>(mask_bytes.size()));
    out.flush();
    if (!out)
        throw util::IoError("saveColumnar: write to '" + path +
                            "' failed");
}

const unsigned char *
ColumnarDatabase::base() const
{
    return mapped_ ? static_cast<const unsigned char *>(map_)
                   : buffer_.data();
}

ColumnarDatabase
ColumnarDatabase::open(const std::string &path)
{
    ColumnarDatabase db;

#if DTRANK_HAVE_MMAP
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        throw util::IoError("ColumnarDatabase: cannot open '" + path +
                            "'");
    struct stat st = {};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        throw util::IoError("ColumnarDatabase: cannot stat '" + path +
                            "'");
    }
    db.size_ = static_cast<std::size_t>(st.st_size);
    if (db.size_ < kHeaderBytes) {
        ::close(fd);
        corrupt(path, "file shorter than the header");
    }
    void *map = ::mmap(nullptr, db.size_, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd); // the mapping keeps the file alive
    if (map == MAP_FAILED)
        throw util::IoError("ColumnarDatabase: mmap of '" + path +
                            "' failed");
    db.map_ = map;
    db.mapped_ = true;
#else
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        throw util::IoError("ColumnarDatabase: cannot open '" + path +
                            "'");
    const std::streamoff end = in.tellg();
    db.size_ = static_cast<std::size_t>(end);
    if (db.size_ < kHeaderBytes)
        corrupt(path, "file shorter than the header");
    db.buffer_.resize(db.size_);
    in.seekg(0);
    in.read(reinterpret_cast<char *>(db.buffer_.data()),
            static_cast<std::streamsize>(db.size_));
    if (!in)
        throw util::IoError("ColumnarDatabase: short read from '" +
                            path + "'");
#endif

    const unsigned char *p = db.base();
    if (std::memcmp(p, kMagic, sizeof(kMagic)) != 0)
        corrupt(path, "bad magic (not a columnar database)");
    const std::uint32_t version = readU32At(p + 8);
    if (version != kVersionDense && version != kVersionMasked)
        corrupt(path, "unsupported format version");
    // Native-order load: on a big-endian host the little-endian tag
    // reads back permuted and the raw double pages would too, so the
    // file is rejected rather than zero-copied into garbage.
    std::uint32_t native_tag = 0;
    std::memcpy(&native_tag, p + 12, sizeof(native_tag));
    if (native_tag != kEndianTag)
        corrupt(path, "endianness mismatch");

    const std::uint64_t n_bench = readU64At(p + 16);
    const std::uint64_t n_machines = readU64At(p + 24);
    const std::uint64_t meta_offset = readU64At(p + 32);
    const std::uint64_t scores_offset = readU64At(p + 40);
    const std::uint64_t stored_hash = readU64At(p + 48);
    const std::uint64_t mask_offset = readU64At(p + 56);
    if (n_bench == 0 || n_machines == 0 || n_bench > kMaxDimension ||
        n_machines > kMaxDimension)
        corrupt(path, "implausible dimensions");
    if (meta_offset != kHeaderBytes)
        corrupt(path, "bad metadata offset");
    if (scores_offset % kScoresAlign != 0 ||
        scores_offset < kHeaderBytes || scores_offset > db.size_)
        corrupt(path, "bad scores offset");
    const std::uint64_t score_bytes =
        n_bench * n_machines * sizeof(double);
    if (score_bytes / sizeof(double) / n_bench != n_machines)
        corrupt(path, "score size overflow");
    if (version == kVersionDense && mask_offset != 0)
        corrupt(path, "version-1 file declares a mask page");
    std::uint64_t mask_bytes = 0;
    if (mask_offset != 0) {
        // The mask page sits directly after the scores: one ScoreMask
        // row of ceil(n_machines / 64) words per benchmark.
        if (mask_offset != scores_offset + score_bytes)
            corrupt(path, "bad mask offset");
        const std::uint64_t row_words =
            (n_machines + ScoreMask::kWordBits - 1) /
            ScoreMask::kWordBits;
        mask_bytes = n_bench * row_words * sizeof(std::uint64_t);
    }
    if (db.size_ != scores_offset + score_bytes + mask_bytes)
        corrupt(path, "file size does not match declared dimensions");

    MetaCursor cursor(p + kHeaderBytes, scores_offset - kHeaderBytes,
                      path);
    db.benchmarks_.reserve(n_bench);
    for (std::uint64_t b = 0; b < n_bench; ++b) {
        BenchmarkInfo info;
        info.name = cursor.str();
        const std::uint32_t domain = cursor.u32();
        if (domain > 1)
            corrupt(path, "bad benchmark domain code");
        info.domain = domain == 0 ? BenchmarkDomain::Integer
                                  : BenchmarkDomain::FloatingPoint;
        info.language = cursor.str();
        info.area = cursor.str();
        db.benchmarks_.push_back(std::move(info));
    }
    db.machines_.reserve(n_machines);
    for (std::uint64_t m = 0; m < n_machines; ++m) {
        MachineInfo info;
        info.vendor = cursor.str();
        info.family = cursor.str();
        info.nickname = cursor.str();
        info.isa = cursor.str();
        info.releaseYear = cursor.i32();
        info.variant = cursor.i32();
        db.machines_.push_back(std::move(info));
    }

    std::uint64_t hash = kFnvOffset;
    fnvUpdate(hash, p + kHeaderBytes, cursor.consumed());
    fnvUpdate(hash, p + scores_offset, score_bytes + mask_bytes);
    if (hash != stored_hash)
        corrupt(path, "payload hash mismatch (corrupted file)");

    if (mask_offset != 0) {
        std::vector<std::uint64_t> words(mask_bytes /
                                         sizeof(std::uint64_t));
        std::memcpy(words.data(), p + mask_offset, mask_bytes);
        try {
            db.mask_ = ScoreMask::fromWords(n_bench, n_machines,
                                            std::move(words));
        } catch (const util::InvalidArgument &e) {
            corrupt(path, e.what());
        }
    }

    db.scores_offset_ = scores_offset;
    return db;
}

ColumnarDatabase::ColumnarDatabase(ColumnarDatabase &&other) noexcept
    : benchmarks_(std::move(other.benchmarks_)),
      machines_(std::move(other.machines_)),
      mask_(std::move(other.mask_)),
      buffer_(std::move(other.buffer_)), map_(other.map_),
      size_(other.size_), scores_offset_(other.scores_offset_),
      mapped_(other.mapped_)
{
    other.map_ = nullptr;
    other.mapped_ = false;
    other.size_ = 0;
}

ColumnarDatabase &
ColumnarDatabase::operator=(ColumnarDatabase &&other) noexcept
{
    if (this != &other) {
#if DTRANK_HAVE_MMAP
        if (mapped_ && map_ != nullptr)
            ::munmap(map_, size_);
#endif
        benchmarks_ = std::move(other.benchmarks_);
        machines_ = std::move(other.machines_);
        mask_ = std::move(other.mask_);
        buffer_ = std::move(other.buffer_);
        map_ = other.map_;
        size_ = other.size_;
        scores_offset_ = other.scores_offset_;
        mapped_ = other.mapped_;
        other.map_ = nullptr;
        other.mapped_ = false;
        other.size_ = 0;
    }
    return *this;
}

ColumnarDatabase::~ColumnarDatabase()
{
#if DTRANK_HAVE_MMAP
    if (mapped_ && map_ != nullptr)
        ::munmap(map_, size_);
#endif
}

const double *
ColumnarDatabase::machineColumn(std::size_t m) const
{
    util::require(m < machines_.size(),
                  "ColumnarDatabase::machineColumn: out of range");
    return reinterpret_cast<const double *>(base() + scores_offset_) +
           m * benchmarks_.size();
}

PerfDatabase
ColumnarDatabase::toDatabase() const
{
    const std::size_t n_bench = benchmarks_.size();
    const std::size_t n_machines = machines_.size();
    // Copy the pages into a machine-major matrix (straight memcpy per
    // page) and let the blocked transpose produce the row-major score
    // matrix; both steps move raw bits, so the round trip is
    // bit-identical.
    linalg::Matrix machine_major(n_machines, n_bench);
    for (std::size_t m = 0; m < n_machines; ++m)
        std::memcpy(machine_major.rowData(m), machineColumn(m),
                    n_bench * sizeof(double));
    return PerfDatabase(benchmarks_, machines_,
                        machine_major.transposed(), mask_);
}

PerfDatabase
loadColumnar(const std::string &path)
{
    return ColumnarDatabase::open(path).toDatabase();
}

bool
isColumnarFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    char head[sizeof(kMagic)] = {};
    in.read(head, sizeof(head));
    return in.gcount() == sizeof(head) &&
           std::memcmp(head, kMagic, sizeof(kMagic)) == 0;
}

PerfDatabase
loadDatabaseAuto(const std::string &path)
{
    return isColumnarFile(path) ? loadColumnar(path)
                                : PerfDatabase::loadCsv(path);
}

} // namespace dtrank::dataset
