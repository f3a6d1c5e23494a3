/**
 * @file
 * Dense row-major matrix type used throughout dtrank.
 *
 * The performance databases the paper works with are small (tens of
 * benchmarks by around a hundred machines), so this is a straightforward
 * cache-friendly dense implementation with bounds-checked access in the
 * public API. It is a value type: copyable, movable, comparable.
 */

#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "util/error.h"

namespace dtrank::linalg
{

/** Dense, row-major matrix of doubles. */
class Matrix
{
  public:
    /** Creates an empty 0x0 matrix. */
    Matrix() = default;

    /** Creates a rows x cols matrix filled with `fill` (default 0). */
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    /**
     * Creates a matrix from nested initializer lists, e.g.
     * `Matrix m{{1, 2}, {3, 4}};`. All rows must be the same length.
     */
    Matrix(std::initializer_list<std::initializer_list<double>> init);

    /** Identity matrix of order n. */
    static Matrix identity(std::size_t n);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    bool empty() const { return rows_ == 0 || cols_ == 0; }

    /** Bounds-checked element access. */
    double
    at(std::size_t r, std::size_t c) const
    {
        util::require(r < rows_ && c < cols_, "Matrix::at: out of range");
        return data_[r * cols_ + c];
    }

    /** Bounds-checked mutable element access. */
    double &
    at(std::size_t r, std::size_t c)
    {
        util::require(r < rows_ && c < cols_, "Matrix::at: out of range");
        return data_[r * cols_ + c];
    }

    /** Unchecked access for hot loops (asserts in debug spirit). */
    double operator()(std::size_t r, std::size_t c) const
    {
        return data_[r * cols_ + c];
    }
    double &operator()(std::size_t r, std::size_t c)
    {
        return data_[r * cols_ + c];
    }

    /**
     * Pointer to the contiguous storage of row r (row-major layout).
     * Copy-free alternative to row() for hot loops that only need to
     * stream a row; invalidated by any reallocation of the matrix.
     */
    const double *
    rowData(std::size_t r) const
    {
        return data_.data() + r * cols_;
    }
    double *
    rowData(std::size_t r)
    {
        return data_.data() + r * cols_;
    }

    /** Copies out row r. */
    std::vector<double> row(std::size_t r) const;

    /** Copies out column c. */
    std::vector<double> column(std::size_t c) const;

    /** Overwrites row r. */
    void setRow(std::size_t r, const std::vector<double> &values);

    /** Overwrites column c. */
    void setColumn(std::size_t c, const std::vector<double> &values);

    /** Returns the transpose. */
    Matrix transposed() const;

    /** Matrix product; requires cols() == other.rows(). */
    Matrix multiply(const Matrix &other) const;

    /**
     * Fast path for A * B^T with B given untransposed: both operands
     * are walked along contiguous rows, so no strided access and no
     * materialized transpose. Requires cols() == other.cols().
     */
    Matrix multiplyTransposed(const Matrix &other) const;

    /** Matrix-vector product; requires cols() == v.size(). */
    std::vector<double> multiply(const std::vector<double> &v) const;

    /**
     * Submatrix copy.
     *
     * @param row_indices Rows to keep, in output order.
     * @param col_indices Columns to keep, in output order.
     */
    Matrix select(const std::vector<std::size_t> &row_indices,
                  const std::vector<std::size_t> &col_indices) const;

    /** Submatrix with all columns kept. */
    Matrix selectRows(const std::vector<std::size_t> &row_indices) const;

    /**
     * Leave-one-out view: all rows except `excluded`, original order.
     * The copy is two contiguous block moves — no index vector and no
     * per-element bounds checks, which matters when called once per
     * held-out benchmark in the experiment harness.
     */
    Matrix selectRowsExcept(std::size_t excluded) const;

    /** Submatrix with all rows kept. */
    Matrix selectColumns(const std::vector<std::size_t> &col_indices) const;

    bool operator==(const Matrix &other) const = default;

    /** Raw storage (row-major), mainly for serialization and tests. */
    const std::vector<double> &data() const { return data_; }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

} // namespace dtrank::linalg

