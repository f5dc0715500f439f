#include "stats/regression.h"

#include <cmath>
#include <stdexcept>

#include "simd/kernels.h"
#include "stats/matrix.h"

namespace dre::stats {
namespace {

Matrix design_matrix(const std::vector<std::vector<double>>& rows) {
    if (rows.empty()) throw std::invalid_argument("regression: no samples");
    const std::size_t d = rows.front().size();
    Matrix x(rows.size(), d + 1); // final column = 1 (intercept)
    for (std::size_t r = 0; r < rows.size(); ++r) {
        if (rows[r].size() != d)
            throw std::invalid_argument("regression: ragged feature rows");
        for (std::size_t c = 0; c < d; ++c) x(r, c) = rows[r][c];
        x(r, d) = 1.0;
    }
    return x;
}

} // namespace

void LinearRegression::fit(const std::vector<std::vector<double>>& rows,
                           std::span<const double> targets, double l2) {
    if (rows.size() != targets.size())
        throw std::invalid_argument("LinearRegression::fit: size mismatch");
    if (l2 < 0.0) throw std::invalid_argument("LinearRegression::fit: negative l2");
    const Matrix x = design_matrix(rows);
    const std::size_t d = x.cols() - 1;
    Matrix gram = x.gram();
    // Regularize the weight block only; add a tiny jitter on the intercept to
    // keep the system SPD even with degenerate inputs.
    for (std::size_t i = 0; i < d; ++i) gram(i, i) += std::max(l2, 1e-12);
    gram(d, d) += 1e-12;
    const std::vector<double> rhs = x.transpose_multiply(targets);
    std::vector<double> solution = solve_spd(gram, rhs);
    intercept_ = solution.back();
    solution.pop_back();
    weights_ = std::move(solution);
    fitted_ = true;
}

double LinearRegression::predict(std::span<const double> features) const {
    if (!fitted_) throw std::logic_error("LinearRegression::predict before fit");
    if (features.size() != weights_.size())
        throw std::invalid_argument("LinearRegression::predict: feature size mismatch");
    // The canonical 8-lane sum of src/simd/simd.h: product i into lane
    // i mod 8, then the fixed reduce tree. Pinned by test_regression.
    double acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (std::size_t i = 0; i < weights_.size(); ++i)
        acc[i & 7] += weights_[i] * features[i];
    return intercept_ + simd::detail::reduce8(acc);
}

double sigmoid(double z) noexcept {
    if (z >= 0.0) {
        const double e = std::exp(-z);
        return 1.0 / (1.0 + e);
    }
    const double e = std::exp(z);
    return e / (1.0 + e);
}

void LogisticRegression::fit(const std::vector<std::vector<double>>& rows,
                             std::span<const int> labels, const Options& options) {
    if (rows.size() != labels.size())
        throw std::invalid_argument("LogisticRegression::fit: size mismatch");
    const Matrix x = design_matrix(rows);
    const std::size_t n = x.rows();
    const std::size_t p = x.cols(); // includes intercept column
    std::vector<double> beta(p, 0.0);

    for (int iter = 0; iter < options.max_iterations; ++iter) {
        // Gradient and Hessian of the penalized log-likelihood.
        std::vector<double> gradient(p, 0.0);
        Matrix hessian(p, p);
        for (std::size_t r = 0; r < n; ++r) {
            double z = 0.0;
            for (std::size_t c = 0; c < p; ++c) z += x(r, c) * beta[c];
            const double mu = sigmoid(z);
            const double y = labels[r] != 0 ? 1.0 : 0.0;
            const double residual = y - mu;
            const double w = std::max(mu * (1.0 - mu), 1e-9);
            for (std::size_t c = 0; c < p; ++c) {
                gradient[c] += x(r, c) * residual;
                for (std::size_t c2 = 0; c2 < p; ++c2)
                    hessian(c, c2) += w * x(r, c) * x(r, c2);
            }
        }
        for (std::size_t c = 0; c + 1 < p; ++c) { // do not regularize intercept
            gradient[c] -= options.l2 * beta[c];
            hessian(c, c) += options.l2;
        }
        hessian(p - 1, p - 1) += 1e-9;

        const std::vector<double> step = solve_spd(hessian, gradient);
        double max_step = 0.0;
        for (std::size_t c = 0; c < p; ++c) {
            beta[c] += step[c];
            max_step = std::max(max_step, std::fabs(step[c]));
        }
        if (max_step < options.tolerance) break;
    }

    intercept_ = beta.back();
    beta.pop_back();
    weights_ = std::move(beta);
    fitted_ = true;
}

double LogisticRegression::predict(std::span<const double> features) const {
    if (!fitted_) throw std::logic_error("LogisticRegression::predict before fit");
    if (features.size() != weights_.size())
        throw std::invalid_argument("LogisticRegression::predict: feature size mismatch");
    double z = intercept_;
    for (std::size_t i = 0; i < weights_.size(); ++i) z += weights_[i] * features[i];
    return sigmoid(z);
}

} // namespace dre::stats
