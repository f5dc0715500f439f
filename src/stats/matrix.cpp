#include "stats/matrix.h"

#include <cmath>
#include <stdexcept>

namespace dre::stats {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::from_rows(const std::vector<std::vector<double>>& rows) {
    if (rows.empty()) return {};
    Matrix m(rows.size(), rows.front().size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
        if (rows[r].size() != m.cols())
            throw std::invalid_argument("Matrix::from_rows: ragged rows");
        for (std::size_t c = 0; c < m.cols(); ++c) m(r, c) = rows[r][c];
    }
    return m;
}

Matrix Matrix::transposed() const {
    Matrix t(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
    return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
    if (cols_ != rhs.rows_)
        throw std::invalid_argument("Matrix::operator*: shape mismatch");
    Matrix out(rows_, rhs.cols_);
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t k = 0; k < cols_; ++k) {
            const double a = (*this)(r, k);
            if (a == 0.0) continue;
            for (std::size_t c = 0; c < rhs.cols_; ++c) out(r, c) += a * rhs(k, c);
        }
    }
    return out;
}

Matrix Matrix::gram() const {
    Matrix g(cols_, cols_);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t i = 0; i < cols_; ++i) {
            const double a = (*this)(r, i);
            if (a == 0.0) continue;
            for (std::size_t j = 0; j < cols_; ++j) g(i, j) += a * (*this)(r, j);
        }
    return g;
}

std::vector<double> Matrix::transpose_multiply(std::span<const double> b) const {
    if (b.size() != rows_)
        throw std::invalid_argument("Matrix::transpose_multiply: shape mismatch");
    std::vector<double> out(cols_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c) out[c] += (*this)(r, c) * b[r];
    return out;
}

std::vector<double> solve_linear_system(Matrix a, std::vector<double> b) {
    const std::size_t n = a.rows();
    if (a.cols() != n || b.size() != n)
        throw std::invalid_argument("solve_linear_system: shape mismatch");
    for (std::size_t col = 0; col < n; ++col) {
        // Partial pivoting.
        std::size_t pivot = col;
        for (std::size_t r = col + 1; r < n; ++r)
            if (std::fabs(a(r, col)) > std::fabs(a(pivot, col))) pivot = r;
        if (std::fabs(a(pivot, col)) < 1e-12)
            throw std::runtime_error("solve_linear_system: singular matrix");
        if (pivot != col) {
            for (std::size_t c = 0; c < n; ++c) std::swap(a(pivot, c), a(col, c));
            std::swap(b[pivot], b[col]);
        }
        for (std::size_t r = col + 1; r < n; ++r) {
            const double factor = a(r, col) / a(col, col);
            if (factor == 0.0) continue;
            for (std::size_t c = col; c < n; ++c) a(r, c) -= factor * a(col, c);
            b[r] -= factor * b[col];
        }
    }
    std::vector<double> x(n, 0.0);
    for (std::size_t i = n; i-- > 0;) {
        double sum = b[i];
        for (std::size_t c = i + 1; c < n; ++c) sum -= a(i, c) * x[c];
        x[i] = sum / a(i, i);
    }
    return x;
}

Matrix cholesky(const Matrix& a) {
    const std::size_t n = a.rows();
    if (a.cols() != n) throw std::invalid_argument("cholesky: matrix not square");
    Matrix l(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            double sum = a(i, j);
            for (std::size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
            if (i == j) {
                if (sum <= 0.0) throw std::runtime_error("cholesky: matrix not SPD");
                l(i, j) = std::sqrt(sum);
            } else {
                l(i, j) = sum / l(j, j);
            }
        }
    }
    return l;
}

std::vector<double> solve_spd(const Matrix& a, std::span<const double> b) {
    const Matrix l = cholesky(a);
    const std::size_t n = l.rows();
    if (b.size() != n) throw std::invalid_argument("solve_spd: shape mismatch");
    // Forward substitution: L y = b.
    std::vector<double> y(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        double sum = b[i];
        for (std::size_t k = 0; k < i; ++k) sum -= l(i, k) * y[k];
        y[i] = sum / l(i, i);
    }
    // Back substitution: L^T x = y.
    std::vector<double> x(n, 0.0);
    for (std::size_t i = n; i-- > 0;) {
        double sum = y[i];
        for (std::size_t k = i + 1; k < n; ++k) sum -= l(k, i) * x[k];
        x[i] = sum / l(i, i);
    }
    return x;
}

} // namespace dre::stats
