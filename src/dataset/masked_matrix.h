/**
 * @file
 * Validity masks for ragged score matrices.
 *
 * The paper's 117x29 database is fully dense, but real spec.org tables
 * are ragged: not every machine runs every benchmark. ScoreMask pairs a
 * dense value matrix with a packed bitset recording which cells were
 * actually observed, following the dense/sparse dual-backend idiom: a
 * default-constructed mask is the *dense sentinel* — it owns no storage
 * and reports every cell valid, so the dense fast paths stay untouched
 * and pay nothing — while a materialized mask stores one bit per cell
 * in row-major 64-bit words whose layout the masked SIMD kernels
 * (src/simd) consume directly.
 *
 * Missing cells in the value matrix are NaN-poisoned by the masked
 * PerfDatabase constructor: any non-mask-aware consumer that touches a
 * masked cell produces NaN instead of a silently wrong number.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dtrank::dataset
{

/**
 * Row-major packed validity bitset with a dense sentinel. Bit c of
 * word (r * rowWords() + c / 64) holds cell (r, c); unused high bits
 * of each row's last word are kept zero.
 */
class ScoreMask
{
  public:
    /** Bits per storage word (the SIMD kernels' mask granularity). */
    static constexpr std::size_t kWordBits = 64;

    /** The dense sentinel: no storage, every cell reported valid. */
    ScoreMask() = default;

    /** Materialized mask with every cell set to `initial`. */
    ScoreMask(std::size_t rows, std::size_t cols, bool initial = true);

    /** True for the storage-free all-valid sentinel. */
    bool dense() const { return words_.empty(); }

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    /** Words per row (ceil(cols / 64)); 0 for the dense sentinel. */
    std::size_t rowWords() const { return row_words_; }

    /** Cell validity; the dense sentinel answers true everywhere. */
    bool valid(std::size_t r, std::size_t c) const
    {
        if (dense())
            return true;
        return ((words_[r * row_words_ + c / kWordBits] >>
                 (c % kWordBits)) &
                1u) != 0;
    }

    /** Sets cell (r, c). Requires a materialized mask. */
    void set(std::size_t r, std::size_t c, bool v);

    /**
     * Row r's packed bits (rowWords() words) for the masked SIMD
     * kernels. Requires a materialized mask.
     */
    const std::uint64_t *rowData(std::size_t r) const;

    /** Valid cells in row r / column c. */
    std::size_t observedInRow(std::size_t r) const;
    std::size_t observedInColumn(std::size_t c) const;

    /** Mask restricted to the given rows (in order). */
    ScoreMask selectRows(const std::vector<std::size_t> &rows) const;

    /** Mask restricted to the given columns (in order). */
    ScoreMask selectColumns(const std::vector<std::size_t> &cols) const;

    /** Mask with one row removed (mirrors Matrix::selectRowsExcept). */
    ScoreMask selectRowsExcept(std::size_t excluded) const;

    /**
     * Packed validity bits of column c across all rows (bit r of word
     * r / 64), for row-compaction consumers. Requires a materialized
     * mask.
     */
    std::vector<std::uint64_t> columnWords(std::size_t c) const;

    /**
     * Rejects all-missing rows/columns: every row and every column of
     * a materialized mask must keep at least one valid cell. The
     * context string prefixes the util::require message.
     */
    void requireNoEmptyLines(const std::string &context) const;

    /**
     * Deterministically samples a mask with roughly `fraction` of the
     * cells invalid (0 <= fraction < 1), then repairs any all-missing
     * row or column so the result always passes requireNoEmptyLines().
     * Same (rows, cols, fraction, seed) always yields the same mask.
     */
    static ScoreMask sample(std::size_t rows, std::size_t cols,
                            double fraction, std::uint64_t seed);

    bool operator==(const ScoreMask &other) const
    {
        return rows_ == other.rows_ && cols_ == other.cols_ &&
               words_ == other.words_;
    }
    bool operator!=(const ScoreMask &other) const
    {
        return !(*this == other);
    }

    /** Raw storage words (empty for the dense sentinel) — for IO. */
    const std::vector<std::uint64_t> &words() const { return words_; }

    /**
     * Rebuilds a materialized mask from raw storage words (the .dtc
     * reader). @throws util::InvalidArgument on a size mismatch or
     * set padding bits.
     */
    static ScoreMask fromWords(std::size_t rows, std::size_t cols,
                               std::vector<std::uint64_t> words);

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::size_t row_words_ = 0;
    std::vector<std::uint64_t> words_;
};

} // namespace dtrank::dataset
