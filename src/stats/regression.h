// Linear (ridge) regression and logistic regression, hand-rolled on top of
// the small Matrix type. These power the Direct-Method reward models and
// the logistic propensity estimator in dre::core.
#ifndef DRE_STATS_REGRESSION_H
#define DRE_STATS_REGRESSION_H

#include <span>
#include <vector>

namespace dre::stats {

// Ordinary/ridge least squares with an intercept term.
//
// Fits y ~ w . x + b by minimizing  sum_i (y_i - w.x_i - b)^2 + l2 * |w|^2
// (the intercept is not regularized). Solved through the normal equations
// with Cholesky; l2 > 0 guarantees positive-definiteness.
class LinearRegression {
public:
    // rows: one feature vector per sample; targets: matching y values.
    // l2 >= 0 is the ridge penalty.
    void fit(const std::vector<std::vector<double>>& rows,
             std::span<const double> targets, double l2 = 1e-6);

    double predict(std::span<const double> features) const;

    std::span<const double> weights() const noexcept { return weights_; }
    double intercept() const noexcept { return intercept_; }

private:
    std::vector<double> weights_;
    double intercept_ = 0.0;
    bool fitted_ = false;
};

// Options for LogisticRegression::fit.
struct LogisticOptions {
    double l2 = 1e-4;
    int max_iterations = 50;
    double tolerance = 1e-8;
};

// Binary logistic regression fit by Newton-Raphson / IRLS with a small
// ridge penalty for stability. predict() returns P(y=1 | x).
class LogisticRegression {
public:
    using Options = LogisticOptions;

    void fit(const std::vector<std::vector<double>>& rows,
             std::span<const int> labels, const Options& options = {});

    double predict(std::span<const double> features) const;

    std::span<const double> weights() const noexcept { return weights_; }
    double intercept() const noexcept { return intercept_; }

private:
    std::vector<double> weights_;
    double intercept_ = 0.0;
    bool fitted_ = false;
};

// Numerically-safe logistic function.
double sigmoid(double z) noexcept;

} // namespace dre::stats

#endif // DRE_STATS_REGRESSION_H
