#include "linalg/matrix.h"

#include <algorithm>

#include "simd/simd.h"
#include "util/error.h"

namespace dtrank::linalg
{

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill)
{
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init)
{
    rows_ = init.size();
    cols_ = rows_ > 0 ? init.begin()->size() : 0;
    data_.reserve(rows_ * cols_);
    for (const auto &row : init) {
        util::require(row.size() == cols_,
                      "Matrix: ragged initializer list");
        data_.insert(data_.end(), row.begin(), row.end());
    }
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

std::vector<double>
Matrix::row(std::size_t r) const
{
    util::require(r < rows_, "Matrix::row: out of range");
    return {data_.begin() + static_cast<std::ptrdiff_t>(r * cols_),
            data_.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols_)};
}

std::vector<double>
Matrix::column(std::size_t c) const
{
    util::require(c < cols_, "Matrix::column: out of range");
    std::vector<double> out(rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        out[r] = (*this)(r, c);
    return out;
}

void
Matrix::setRow(std::size_t r, const std::vector<double> &values)
{
    util::require(r < rows_, "Matrix::setRow: out of range");
    util::require(values.size() == cols_, "Matrix::setRow: size mismatch");
    std::copy(values.begin(), values.end(),
              data_.begin() + static_cast<std::ptrdiff_t>(r * cols_));
}

void
Matrix::setColumn(std::size_t c, const std::vector<double> &values)
{
    util::require(c < cols_, "Matrix::setColumn: out of range");
    util::require(values.size() == rows_,
                  "Matrix::setColumn: size mismatch");
    for (std::size_t r = 0; r < rows_; ++r)
        (*this)(r, c) = values[r];
}

Matrix
Matrix::transposed() const
{
    // Tiled transpose: 32x32 double tiles (8 KiB each side) keep both
    // the strided reads and the strided writes inside L1, which turns
    // the naive O(rows*cols) cache-miss pattern into streaming block
    // moves. Pure data movement — no arithmetic, so trivially
    // bit-identical to the element-at-a-time form at any size.
    constexpr std::size_t kTile = 32;
    Matrix t(cols_, rows_);
    for (std::size_t r0 = 0; r0 < rows_; r0 += kTile) {
        const std::size_t r1 = std::min(rows_, r0 + kTile);
        for (std::size_t c0 = 0; c0 < cols_; c0 += kTile) {
            const std::size_t c1 = std::min(cols_, c0 + kTile);
            for (std::size_t r = r0; r < r1; ++r) {
                const double *src = data_.data() + r * cols_;
                for (std::size_t c = c0; c < c1; ++c)
                    t.data_[c * rows_ + r] = src[c];
            }
        }
    }
    return t;
}

namespace
{

/**
 * Cache block edge for the matrix product. 64x64 doubles per operand
 * tile is 32 KiB — sized so one tile of each operand fits in L1/L2
 * together with the output rows being accumulated.
 */
constexpr std::size_t kMultiplyBlock = 64;

} // namespace

Matrix
Matrix::multiply(const Matrix &other) const
{
    util::require(cols_ == other.rows_,
                  "Matrix::multiply: dimension mismatch");
    Matrix out(rows_, other.cols_, 0.0);
    const std::size_t n_i = rows_;
    const std::size_t n_k = cols_;
    const std::size_t n_j = other.cols_;
    // Blocked i-k-j: each (i, k-block, j-block) tile update is one
    // dispatch-selected GEMM microkernel call streaming rows of
    // `other` and `out` contiguously, while blocking keeps the active
    // tiles cache-resident for larger operands. For any (i, j) the k
    // terms still accumulate in ascending order and the microkernel's
    // j sweep is elementwise, so the result is bit-identical to the
    // textbook triple loop at every dispatch tier.
    for (std::size_t ii = 0; ii < n_i; ii += kMultiplyBlock) {
        const std::size_t i_end = std::min(ii + kMultiplyBlock, n_i);
        for (std::size_t kk = 0; kk < n_k; kk += kMultiplyBlock) {
            const std::size_t k_end = std::min(kk + kMultiplyBlock, n_k);
            for (std::size_t jj = 0; jj < n_j; jj += kMultiplyBlock) {
                const std::size_t j_end =
                    std::min(jj + kMultiplyBlock, n_j);
                for (std::size_t i = ii; i < i_end; ++i) {
                    simd::gemmMicro(
                        k_end - kk, j_end - jj,
                        data_.data() + i * n_k + kk,
                        other.data_.data() + kk * n_j + jj, n_j,
                        out.data_.data() + i * n_j + jj);
                }
            }
        }
    }
    return out;
}

Matrix
Matrix::multiplyTransposed(const Matrix &other) const
{
    util::require(cols_ == other.cols_,
                  "Matrix::multiplyTransposed: dimension mismatch");
    Matrix out(rows_, other.rows_, 0.0);
    const std::size_t n_k = cols_;
    // out(i, j) = dot(row i of *this, row j of other): two contiguous
    // streams per output element, no blocking needed. The canonical
    // lane-blocked reduction makes the bits tier-independent.
    for (std::size_t i = 0; i < rows_; ++i) {
        const double *a_row = data_.data() + i * n_k;
        for (std::size_t j = 0; j < other.rows_; ++j)
            out(i, j) = simd::dot(a_row,
                                  other.data_.data() + j * n_k, n_k);
    }
    return out;
}

std::vector<double>
Matrix::multiply(const std::vector<double> &v) const
{
    util::require(cols_ == v.size(),
                  "Matrix::multiply(vector): dimension mismatch");
    std::vector<double> out(rows_, 0.0);
    for (std::size_t i = 0; i < rows_; ++i)
        out[i] = simd::dot(data_.data() + i * cols_, v.data(), cols_);
    return out;
}

Matrix
Matrix::select(const std::vector<std::size_t> &row_indices,
               const std::vector<std::size_t> &col_indices) const
{
    // Bounds checks hoisted out of the copy loop.
    for (std::size_t r : row_indices)
        util::require(r < rows_, "Matrix::select: row index out of range");
    for (std::size_t c : col_indices)
        util::require(c < cols_,
                      "Matrix::select: column index out of range");
    Matrix out(row_indices.size(), col_indices.size());
    for (std::size_t i = 0; i < row_indices.size(); ++i) {
        const double *src = data_.data() + row_indices[i] * cols_;
        double *dst = out.data_.data() + i * out.cols_;
        for (std::size_t j = 0; j < col_indices.size(); ++j)
            dst[j] = src[col_indices[j]];
    }
    return out;
}

Matrix
Matrix::selectRows(const std::vector<std::size_t> &row_indices) const
{
    for (std::size_t r : row_indices)
        util::require(r < rows_,
                      "Matrix::selectRows: row index out of range");
    Matrix out(row_indices.size(), cols_);
    for (std::size_t i = 0; i < row_indices.size(); ++i)
        std::copy_n(data_.begin() +
                        static_cast<std::ptrdiff_t>(row_indices[i] * cols_),
                    cols_,
                    out.data_.begin() +
                        static_cast<std::ptrdiff_t>(i * cols_));
    return out;
}

Matrix
Matrix::selectRowsExcept(std::size_t excluded) const
{
    util::require(excluded < rows_,
                  "Matrix::selectRowsExcept: row index out of range");
    util::require(rows_ >= 1, "Matrix::selectRowsExcept: empty matrix");
    Matrix out(rows_ - 1, cols_);
    const auto head = static_cast<std::ptrdiff_t>(excluded * cols_);
    std::copy_n(data_.begin(), excluded * cols_, out.data_.begin());
    std::copy(data_.begin() + head + static_cast<std::ptrdiff_t>(cols_),
              data_.end(), out.data_.begin() + head);
    return out;
}

Matrix
Matrix::selectColumns(const std::vector<std::size_t> &col_indices) const
{
    std::vector<std::size_t> all_rows(rows_);
    for (std::size_t i = 0; i < rows_; ++i)
        all_rows[i] = i;
    return select(all_rows, col_indices);
}

} // namespace dtrank::linalg
