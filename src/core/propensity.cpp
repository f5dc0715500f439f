#include "core/propensity.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace dre::core {
namespace {

void check_decision(Decision d, std::size_t n, const char* who) {
    if (d < 0 || static_cast<std::size_t>(d) >= n)
        throw std::out_of_range(std::string(who) + ": decision out of range");
}

} // namespace

TabularPropensityModel::TabularPropensityModel(std::size_t num_decisions,
                                               double smoothing, double floor)
    : num_decisions_(num_decisions), smoothing_(smoothing), floor_(floor) {
    if (num_decisions_ == 0)
        throw std::invalid_argument("TabularPropensityModel: empty decision space");
    if (smoothing_ < 0.0)
        throw std::invalid_argument("TabularPropensityModel: negative smoothing");
    if (floor_ <= 0.0 || floor_ >= 1.0)
        throw std::invalid_argument("TabularPropensityModel: floor outside (0,1)");
}

void TabularPropensityModel::fit(const Trace& trace) {
    validate_trace(trace);
    // Fit into locals so a throwing fit leaves the previous one intact.
    std::unordered_map<std::uint64_t, std::vector<double>> counts;
    std::vector<double> marginal_counts(num_decisions_, 0.0);
    for (const auto& t : trace) {
        check_decision(t.decision, num_decisions_, "TabularPropensityModel::fit");
        auto& row = counts[context_fingerprint(t.context)];
        if (row.empty()) row.assign(num_decisions_, 0.0);
        row[static_cast<std::size_t>(t.decision)] += 1.0;
        marginal_counts[static_cast<std::size_t>(t.decision)] += 1.0;
    }
    counts_ = std::move(counts);
    marginal_counts_ = std::move(marginal_counts);
    fitted_ = true;
}

double TabularPropensityModel::probability(const ClientContext& context,
                                           Decision d) const {
    if (!fitted_) throw std::logic_error("TabularPropensityModel before fit");
    check_decision(d, num_decisions_, "TabularPropensityModel::probability");
    const auto it = counts_.find(context_fingerprint(context));
    const std::vector<double>& row =
        it != counts_.end() ? it->second : marginal_counts_;
    double total = 0.0;
    for (double c : row) total += c + smoothing_;
    if (total <= 0.0) return 1.0 / static_cast<double>(num_decisions_);
    const double p = (row[static_cast<std::size_t>(d)] + smoothing_) / total;
    return std::clamp(p, floor_, 1.0);
}

LogisticPropensityModel::LogisticPropensityModel(std::size_t num_decisions,
                                                 double floor)
    : num_decisions_(num_decisions), floor_(floor) {
    if (num_decisions_ == 0)
        throw std::invalid_argument("LogisticPropensityModel: empty decision space");
    if (floor_ <= 0.0 || floor_ >= 1.0)
        throw std::invalid_argument("LogisticPropensityModel: floor outside (0,1)");
}

void LogisticPropensityModel::fit(const Trace& trace) {
    validate_trace(trace);
    if (trace.empty())
        throw std::invalid_argument("LogisticPropensityModel::fit: empty trace");
    // Fit into locals so a throwing fit leaves the previous one intact.
    std::vector<stats::LogisticRegression> per_decision(num_decisions_);
    std::vector<bool> has_model(num_decisions_, false);
    std::vector<double> marginals(num_decisions_, 0.0);

    std::vector<std::vector<double>> features;
    features.reserve(trace.size());
    for (const auto& t : trace) {
        check_decision(t.decision, num_decisions_, "LogisticPropensityModel::fit");
        features.push_back(t.context.flattened());
        marginals[static_cast<std::size_t>(t.decision)] += 1.0;
    }
    for (double& m : marginals) m /= static_cast<double>(trace.size());

    for (std::size_t d = 0; d < num_decisions_; ++d) {
        // One-vs-rest labels; skip decisions that are all-0 or all-1.
        std::vector<int> labels(trace.size());
        std::size_t positives = 0;
        for (std::size_t i = 0; i < trace.size(); ++i) {
            labels[i] = trace[i].decision == static_cast<Decision>(d) ? 1 : 0;
            positives += static_cast<std::size_t>(labels[i]);
        }
        if (positives == 0 || positives == trace.size()) continue;
        per_decision[d].fit(features, labels);
        has_model[d] = true;
    }
    per_decision_ = std::move(per_decision);
    has_model_ = std::move(has_model);
    marginals_ = std::move(marginals);
    fitted_ = true;
}

std::vector<double> LogisticPropensityModel::distribution(
    const ClientContext& context) const {
    if (!fitted_) throw std::logic_error("LogisticPropensityModel before fit");
    const std::vector<double> features = context.flattened();
    std::vector<double> scores(num_decisions_);
    double total = 0.0;
    for (std::size_t d = 0; d < num_decisions_; ++d) {
        scores[d] = has_model_[d] ? per_decision_[d].predict(features)
                                  : std::max(marginals_[d], floor_);
        total += scores[d];
    }
    if (total <= 0.0) {
        scores.assign(num_decisions_, 1.0 / static_cast<double>(num_decisions_));
        return scores;
    }
    for (double& s : scores) s = std::clamp(s / total, floor_, 1.0);
    // Renormalize after clamping so the result is a distribution.
    double clamped_total = 0.0;
    for (double s : scores) clamped_total += s;
    for (double& s : scores) s /= clamped_total;
    return scores;
}

double LogisticPropensityModel::probability(const ClientContext& context,
                                            Decision d) const {
    check_decision(d, num_decisions_, "LogisticPropensityModel::probability");
    const std::vector<double> dist = distribution(context);
    return std::max(dist[static_cast<std::size_t>(d)], floor_);
}

Trace with_estimated_propensities(const Trace& trace, const PropensityModel& model) {
    Trace out;
    out.reserve(trace.size());
    for (const auto& t : trace) {
        LoggedTuple copy = t;
        copy.propensity = model.probability(t.context, t.decision);
        out.add(std::move(copy));
    }
    return out;
}

} // namespace dre::core
