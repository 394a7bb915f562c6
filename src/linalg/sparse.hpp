/// \file sparse.hpp
/// \brief COO (triplet) assembly of sparse matrices.
///
/// MNA matrices of filter netlists are very sparse (a handful of entries
/// per row).  Stamps accumulate here; `SparseFactorization` (see
/// sparse_factorization.hpp) factors and solves them.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace ftdiag::linalg {

/// Triplet-form accumulator.  Duplicate (row, col) entries are summed on
/// conversion, matching stamp semantics.
template <typename T>
class CooMatrix {
public:
  CooMatrix(std::size_t rows, std::size_t cols) : rows_(rows), cols_(cols) {}

  void add(std::size_t row, std::size_t col, const T& value) {
    FTDIAG_ASSERT(row < rows_ && col < cols_, "coo index out of range");
    if (value == T{}) return;
    entries_.push_back({row, col, value});
  }

  /// Drop all entries, keeping the capacity (per-frequency reassembly
  /// reuses one accumulator without reallocating).
  void clear() { entries_.clear(); }

  /// Room for \p count entries, so assembling that many never reallocates.
  void reserve(std::size_t count) { entries_.reserve(count); }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t entry_count() const { return entries_.size(); }

  struct Entry {
    std::size_t row;
    std::size_t col;
    T value;
  };
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

  /// Densify (mostly for tests and small systems).
  [[nodiscard]] Matrix<T> to_dense() const {
    Matrix<T> m(rows_, cols_);
    for (const auto& e : entries_) m(e.row, e.col) += e.value;
    return m;
  }

private:
  std::size_t rows_, cols_;
  std::vector<Entry> entries_;
};

}  // namespace ftdiag::linalg
