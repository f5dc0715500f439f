// Small dense matrix with just enough linear algebra for regression:
// matrix products, Cholesky factorization, and a pivoted Gaussian solver.
#ifndef DRE_STATS_MATRIX_H
#define DRE_STATS_MATRIX_H

#include <cstddef>
#include <span>
#include <vector>

namespace dre::stats {

class Matrix {
public:
    Matrix() = default;
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    static Matrix from_rows(const std::vector<std::vector<double>>& rows);

    std::size_t rows() const noexcept { return rows_; }
    std::size_t cols() const noexcept { return cols_; }

    double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
    double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

    Matrix transposed() const;
    Matrix operator*(const Matrix& rhs) const;

    // A^T * A (Gram matrix) and A^T * b, the normal-equation ingredients.
    Matrix gram() const;
    std::vector<double> transpose_multiply(std::span<const double> b) const;

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

// Solve A x = b for square A via partial-pivot Gaussian elimination.
// Throws std::runtime_error if A is (numerically) singular.
std::vector<double> solve_linear_system(Matrix a, std::vector<double> b);

// Cholesky factorization of a symmetric positive-definite matrix: returns
// lower-triangular L with A = L L^T. Throws if A is not SPD.
Matrix cholesky(const Matrix& a);

// Solve A x = b where A is SPD, using Cholesky (faster/stabler than Gauss).
std::vector<double> solve_spd(const Matrix& a, std::span<const double> b);

} // namespace dre::stats

#endif // DRE_STATS_MATRIX_H
