#include "stats/matrix.h"

#include <gtest/gtest.h>

#include <vector>

#include "stats/rng.h"

namespace dre::stats {
namespace {

TEST(Matrix, ConstructionAndAccess) {
    Matrix m(2, 3, 1.5);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
    m(0, 0) = 7.0;
    EXPECT_DOUBLE_EQ(m(0, 0), 7.0);
    EXPECT_DOUBLE_EQ(m(0, 1), 1.5);
}

TEST(Matrix, FromRowsRejectsRagged) {
    EXPECT_THROW(Matrix::from_rows({{1, 2}, {3}}), std::invalid_argument);
}

TEST(Matrix, MultiplyKnownProduct) {
    const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
    const Matrix b = Matrix::from_rows({{5, 6}, {7, 8}});
    const Matrix c = a * b;
    EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
    EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
    EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
    EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, ShapeMismatchThrows) {
    const Matrix a(2, 3);
    const Matrix b(2, 3);
    EXPECT_THROW(a * b, std::invalid_argument);
}

TEST(Matrix, TransposeAndGram) {
    const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}, {5, 6}});
    const Matrix at = a.transposed();
    EXPECT_EQ(at.rows(), 2u);
    EXPECT_EQ(at.cols(), 3u);
    const Matrix gram = a.gram();
    const Matrix expected = at * a;
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 2; ++c)
            EXPECT_NEAR(gram(r, c), expected(r, c), 1e-12);
}

TEST(Matrix, TransposeMultiply) {
    const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}, {5, 6}});
    const std::vector<double> b{1.0, 1.0, 1.0};
    const std::vector<double> atb = a.transpose_multiply(b);
    EXPECT_DOUBLE_EQ(atb[0], 9.0);
    EXPECT_DOUBLE_EQ(atb[1], 12.0);
}

TEST(Solve, GaussianRecoversKnownSolution) {
    const Matrix a = Matrix::from_rows({{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}});
    const std::vector<double> b{8.0, -11.0, -3.0};
    const std::vector<double> x = solve_linear_system(a, b);
    EXPECT_NEAR(x[0], 2.0, 1e-9);
    EXPECT_NEAR(x[1], 3.0, 1e-9);
    EXPECT_NEAR(x[2], -1.0, 1e-9);
}

TEST(Solve, SingularMatrixThrows) {
    const Matrix a = Matrix::from_rows({{1, 2}, {2, 4}});
    EXPECT_THROW(solve_linear_system(a, {1.0, 2.0}), std::runtime_error);
}

TEST(Cholesky, FactorizesSpd) {
    const Matrix a = Matrix::from_rows({{4, 2}, {2, 3}});
    const Matrix l = cholesky(a);
    const Matrix reconstructed = l * l.transposed();
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 2; ++c)
            EXPECT_NEAR(reconstructed(r, c), a(r, c), 1e-12);
}

TEST(Cholesky, RejectsNonSpd) {
    const Matrix not_spd = Matrix::from_rows({{1, 2}, {2, 1}});
    EXPECT_THROW(cholesky(not_spd), std::runtime_error);
    EXPECT_THROW(cholesky(Matrix(2, 3)), std::invalid_argument);
}

TEST(Cholesky, SolveSpdMatchesGaussian) {
    Rng rng(99);
    // Random SPD system: A = B^T B + I.
    Matrix b(5, 5);
    for (std::size_t r = 0; r < 5; ++r)
        for (std::size_t c = 0; c < 5; ++c) b(r, c) = rng.normal();
    Matrix a = b.gram();
    for (std::size_t i = 0; i < 5; ++i) a(i, i) += 1.0;
    std::vector<double> rhs(5);
    for (double& x : rhs) x = rng.normal();

    const std::vector<double> x1 = solve_spd(a, rhs);
    const std::vector<double> x2 = solve_linear_system(a, rhs);
    for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(x1[i], x2[i], 1e-9);
}

} // namespace
} // namespace dre::stats
