#include "dataset/masked_matrix.h"

#include "util/error.h"
#include "util/rng.h"

namespace dtrank::dataset
{

namespace
{

std::size_t
popcount64(std::uint64_t v)
{
    std::size_t n = 0;
    while (v != 0) {
        v &= v - 1;
        ++n;
    }
    return n;
}

} // namespace

ScoreMask::ScoreMask(std::size_t rows, std::size_t cols, bool initial)
    : rows_(rows), cols_(cols),
      row_words_((cols + kWordBits - 1) / kWordBits)
{
    util::require(rows > 0 && cols > 0,
                  "ScoreMask: dimensions must be positive");
    words_.assign(rows_ * row_words_, 0);
    if (initial) {
        for (std::size_t r = 0; r < rows_; ++r)
            for (std::size_t c = 0; c < cols_; ++c)
                set(r, c, true);
    }
}

void
ScoreMask::set(std::size_t r, std::size_t c, bool v)
{
    util::require(!dense(), "ScoreMask::set: dense sentinel mask");
    util::require(r < rows_ && c < cols_,
                  "ScoreMask::set: out of range");
    std::uint64_t &word = words_[r * row_words_ + c / kWordBits];
    const std::uint64_t bit = std::uint64_t{1} << (c % kWordBits);
    if (v)
        word |= bit;
    else
        word &= ~bit;
}

const std::uint64_t *
ScoreMask::rowData(std::size_t r) const
{
    util::require(!dense(), "ScoreMask::rowData: dense sentinel mask");
    util::require(r < rows_, "ScoreMask::rowData: out of range");
    return words_.data() + r * row_words_;
}

std::size_t
ScoreMask::observedInRow(std::size_t r) const
{
    if (dense())
        return cols_;
    util::require(r < rows_, "ScoreMask::observedInRow: out of range");
    std::size_t n = 0;
    for (std::size_t w = 0; w < row_words_; ++w)
        n += popcount64(words_[r * row_words_ + w]);
    return n;
}

std::size_t
ScoreMask::observedInColumn(std::size_t c) const
{
    if (dense())
        return rows_;
    util::require(c < cols_,
                  "ScoreMask::observedInColumn: out of range");
    std::size_t n = 0;
    for (std::size_t r = 0; r < rows_; ++r)
        if (valid(r, c))
            ++n;
    return n;
}

ScoreMask
ScoreMask::selectRows(const std::vector<std::size_t> &rows) const
{
    if (dense())
        return ScoreMask{};
    util::require(!rows.empty(), "ScoreMask::selectRows: empty");
    ScoreMask out(rows.size(), cols_, false);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        util::require(rows[i] < rows_,
                      "ScoreMask::selectRows: out of range");
        for (std::size_t w = 0; w < row_words_; ++w)
            out.words_[i * row_words_ + w] =
                words_[rows[i] * row_words_ + w];
    }
    return out;
}

ScoreMask
ScoreMask::selectColumns(const std::vector<std::size_t> &cols) const
{
    if (dense())
        return ScoreMask{};
    util::require(!cols.empty(), "ScoreMask::selectColumns: empty");
    ScoreMask out(rows_, cols.size(), false);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t i = 0; i < cols.size(); ++i) {
            util::require(cols[i] < cols_,
                          "ScoreMask::selectColumns: out of range");
            out.set(r, i, valid(r, cols[i]));
        }
    return out;
}

ScoreMask
ScoreMask::selectRowsExcept(std::size_t excluded) const
{
    if (dense())
        return ScoreMask{};
    util::require(excluded < rows_,
                  "ScoreMask::selectRowsExcept: out of range");
    std::vector<std::size_t> keep;
    keep.reserve(rows_ - 1);
    for (std::size_t r = 0; r < rows_; ++r)
        if (r != excluded)
            keep.push_back(r);
    return selectRows(keep);
}

std::vector<std::uint64_t>
ScoreMask::columnWords(std::size_t c) const
{
    util::require(!dense(),
                  "ScoreMask::columnWords: dense sentinel mask");
    util::require(c < cols_, "ScoreMask::columnWords: out of range");
    std::vector<std::uint64_t> out((rows_ + kWordBits - 1) / kWordBits,
                                   0);
    for (std::size_t r = 0; r < rows_; ++r)
        if (valid(r, c))
            out[r / kWordBits] |= std::uint64_t{1} << (r % kWordBits);
    return out;
}

void
ScoreMask::requireNoEmptyLines(const std::string &context) const
{
    if (dense())
        return;
    for (std::size_t r = 0; r < rows_; ++r)
        util::require(observedInRow(r) > 0,
                      context + ": row " + std::to_string(r) +
                          " has no valid entries (all-missing row)");
    for (std::size_t c = 0; c < cols_; ++c)
        util::require(observedInColumn(c) > 0,
                      context + ": column " + std::to_string(c) +
                          " has no valid entries (all-missing column)");
}

ScoreMask
ScoreMask::sample(std::size_t rows, std::size_t cols, double fraction,
                  std::uint64_t seed)
{
    util::require(fraction >= 0.0 && fraction < 1.0,
                  "ScoreMask::sample: fraction must be in [0, 1)");
    ScoreMask mask(rows, cols, true);
    if (fraction <= 0.0)
        return mask;
    util::Rng rng(seed);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            if (rng.uniform(0.0, 1.0) < fraction)
                mask.set(r, c, false);
    // Deterministic repair: an all-missing row (column) gets one cell
    // back at a position derived from its index, so the mask always
    // passes requireNoEmptyLines() regardless of the draw.
    for (std::size_t r = 0; r < rows; ++r)
        if (mask.observedInRow(r) == 0)
            mask.set(r, r % cols, true);
    for (std::size_t c = 0; c < cols; ++c)
        if (mask.observedInColumn(c) == 0)
            mask.set(c % rows, c, true);
    return mask;
}

ScoreMask
ScoreMask::fromWords(std::size_t rows, std::size_t cols,
                     std::vector<std::uint64_t> words)
{
    ScoreMask mask(rows, cols, false);
    util::require(words.size() == mask.words_.size(),
                  "ScoreMask::fromWords: word count mismatch");
    mask.words_ = std::move(words);
    // Padding bits beyond `cols` in each row's last word must be zero:
    // set padding would corrupt observedCount() and equality.
    if (cols % kWordBits != 0) {
        const std::uint64_t pad_mask =
            ~((std::uint64_t{1} << (cols % kWordBits)) - 1);
        for (std::size_t r = 0; r < rows; ++r)
            util::require(
                (mask.words_[(r + 1) * mask.row_words_ - 1] &
                 pad_mask) == 0,
                "ScoreMask::fromWords: set padding bits");
    }
    return mask;
}

} // namespace dtrank::dataset
