#include "stats/hypothesis.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace dre::stats {

double normal_cdf(double z) {
    return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

RankSumResult mann_whitney_u(std::span<const double> xs, std::span<const double> ys) {
    if (xs.empty() || ys.empty())
        throw std::invalid_argument("mann_whitney_u: empty sample");

    struct Tagged {
        double value;
        bool from_x;
    };
    std::vector<Tagged> all;
    all.reserve(xs.size() + ys.size());
    for (double x : xs) all.push_back({x, true});
    for (double y : ys) all.push_back({y, false});
    std::sort(all.begin(), all.end(),
              [](const Tagged& a, const Tagged& b) { return a.value < b.value; });

    // Midranks with tie bookkeeping.
    const auto n = static_cast<double>(all.size());
    double rank_sum_x = 0.0;
    double tie_correction = 0.0;
    std::size_t i = 0;
    while (i < all.size()) {
        std::size_t j = i;
        while (j + 1 < all.size() && all[j + 1].value == all[i].value) ++j;
        const double midrank = (static_cast<double>(i + 1) + static_cast<double>(j + 1)) / 2.0;
        const auto tie_size = static_cast<double>(j - i + 1);
        tie_correction += tie_size * (tie_size * tie_size - 1.0);
        for (std::size_t k = i; k <= j; ++k)
            if (all[k].from_x) rank_sum_x += midrank;
        i = j + 1;
    }

    const auto n1 = static_cast<double>(xs.size());
    const auto n2 = static_cast<double>(ys.size());
    RankSumResult result;
    result.u_statistic = rank_sum_x - n1 * (n1 + 1.0) / 2.0;
    const double mean_u = n1 * n2 / 2.0;
    const double variance_u =
        n1 * n2 / 12.0 * ((n + 1.0) - tie_correction / (n * (n - 1.0)));
    if (variance_u <= 0.0) {
        // All values identical: no evidence either way.
        result.z_score = 0.0;
        result.p_value_two_sided = 1.0;
        result.p_value_less = 0.5;
        return result;
    }
    result.z_score = (result.u_statistic - mean_u) / std::sqrt(variance_u);
    result.p_value_less = normal_cdf(result.z_score);
    result.p_value_two_sided =
        2.0 * std::min(result.p_value_less, 1.0 - result.p_value_less);
    return result;
}

} // namespace dre::stats
