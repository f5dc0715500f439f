#include "core/reward_model.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace dre::core {
namespace {

void check_decision(Decision d, std::size_t n, const char* who) {
    if (d < 0 || static_cast<std::size_t>(d) >= n)
        throw std::out_of_range(std::string(who) + ": decision out of range");
}

// TabularRewardModel's slot count for `contexts` distinct contexts: the
// smallest power of two (at least 2) that holds them at most half full.
std::size_t slot_count(std::size_t contexts) {
    return std::bit_ceil(std::max<std::size_t>(2 * contexts, 2));
}

} // namespace

ConstantRewardModel::ConstantRewardModel(std::size_t num_decisions, double value)
    : num_decisions_(num_decisions), value_(value) {
    if (num_decisions_ == 0)
        throw std::invalid_argument("ConstantRewardModel: empty decision space");
}

OracleRewardModel::OracleRewardModel(std::size_t num_decisions, Fn fn)
    : num_decisions_(num_decisions), fn_(std::move(fn)) {
    if (num_decisions_ == 0)
        throw std::invalid_argument("OracleRewardModel: empty decision space");
    if (!fn_) throw std::invalid_argument("OracleRewardModel: null function");
}

double OracleRewardModel::predict(const ClientContext& context, Decision d) const {
    check_decision(d, num_decisions_, "OracleRewardModel");
    return fn_(context, d);
}

TabularRewardModel::TabularRewardModel(std::size_t num_decisions)
    : num_decisions_(num_decisions) {
    if (num_decisions_ == 0)
        throw std::invalid_argument("TabularRewardModel: empty decision space");
}

void TabularRewardModel::fit(const Trace& trace) {
    validate_trace(trace);
    // Cell links are 32-bit, and a trace makes at most one context and one
    // cell per tuple, so both arrays are sized once, here: growing them
    // mid-fit would fault in fresh pages at every doubling.
    if (trace.size() >= kNoCell)
        throw std::length_error("TabularRewardModel::fit: trace too large");
    // Fit into locals so a throwing fit leaves the previous one intact.
    std::vector<std::uint32_t> slots(slot_count(trace.size()), kNoCell);
    std::vector<Cell> cells;
    cells.reserve(trace.size()); // so `link` below never dangles
    std::size_t contexts = 0;
    std::vector<MeanCount> decision_means(num_decisions_);
    MeanCount global_mean;
    for (const auto& t : trace) {
        check_decision(t.decision, num_decisions_, "TabularRewardModel::fit");
        const std::uint64_t fingerprint = context_fingerprint(t.context);
        // Walk the context's chain from its slot; a new cell goes at the tail.
        std::uint32_t* link = &slots[find_slot(slots, cells, fingerprint)];
        if (*link == kNoCell) ++contexts;
        while (*link != kNoCell && cells[*link].decision != t.decision)
            link = &cells[*link].next;
        if (*link == kNoCell) {
            *link = static_cast<std::uint32_t>(cells.size());
            cells.push_back(Cell{fingerprint, {}, t.decision});
        }
        cells[*link].reward.add(t.reward); // in trace order, as every mean here
        decision_means[static_cast<std::size_t>(t.decision)].add(t.reward);
        global_mean.add(t.reward);
    }
    // A trace that repeated contexts sized both arrays for more than it
    // made. Keep memory in proportion to the contexts: drop the unused
    // cells, and rebuild the slots at their smallest size. A context's
    // first cell precedes the rest of its chain in `cells`, so the first
    // cell seen with each fingerprint is the one its slot holds.
    cells.shrink_to_fit();
    if (slot_count(contexts) < slots.size()) {
        slots = std::vector<std::uint32_t>(slot_count(contexts), kNoCell);
        for (std::size_t i = 0; i < cells.size(); ++i) {
            std::uint32_t& first =
                slots[find_slot(slots, cells, cells[i].fingerprint)];
            if (first == kNoCell) first = static_cast<std::uint32_t>(i);
        }
    }
    std::vector<double> fallback(num_decisions_);
    for (std::size_t d = 0; d < num_decisions_; ++d)
        fallback[d] = decision_means[d].count > 0 ? decision_means[d].mean
                                                  : global_mean.mean;
    slots_ = std::move(slots);
    cells_ = std::move(cells);
    fallback_ = std::move(fallback);
    fitted_ = true;
}

std::size_t TabularRewardModel::find_slot(
    const std::vector<std::uint32_t>& slots, const std::vector<Cell>& cells,
    std::uint64_t fingerprint) {
    // Fibonacci hashing: the home slot is the product's top log2(size)
    // bits. The table is at most half full, so the probe ends.
    const std::uint64_t mask = slots.size() - 1;
    std::size_t slot = static_cast<std::size_t>(
        (fingerprint * 0x9e3779b97f4a7c15ull) >> std::countl_zero(mask));
    while (slots[slot] != kNoCell &&
           cells[slots[slot]].fingerprint != fingerprint)
        slot = (slot + 1) & mask;
    return slot;
}

const TabularRewardModel::Cell* TabularRewardModel::first_cell(
    const ClientContext& context) const {
    const std::uint32_t first =
        slots_[find_slot(slots_, cells_, context_fingerprint(context))];
    return first == kNoCell ? nullptr : &cells_[first];
}

double TabularRewardModel::predict(const ClientContext& context, Decision d) const {
    if (!fitted_) throw std::logic_error("TabularRewardModel::predict before fit");
    check_decision(d, num_decisions_, "TabularRewardModel::predict");
    for (const Cell* cell = first_cell(context); cell; cell = next_cell(*cell))
        if (cell->decision == d) return cell->reward.mean;
    return fallback_[static_cast<std::size_t>(d)];
}

void TabularRewardModel::predict_row(const ClientContext& context,
                                     double* out) const {
    if (!fitted_)
        throw std::logic_error("TabularRewardModel::predict_row before fit");
    std::copy(fallback_.begin(), fallback_.end(), out);
    for (const Cell* cell = first_cell(context); cell; cell = next_cell(*cell))
        out[cell->decision] = cell->reward.mean;
}

LinearRewardModel::LinearRewardModel(std::size_t num_decisions, double l2)
    : num_decisions_(num_decisions), l2_(l2) {
    if (num_decisions_ == 0)
        throw std::invalid_argument("LinearRewardModel: empty decision space");
    if (l2_ < 0.0) throw std::invalid_argument("LinearRewardModel: negative l2");
}

void LinearRewardModel::fit(const Trace& trace) {
    validate_trace(trace);
    std::vector<std::vector<std::vector<double>>> features(num_decisions_);
    std::vector<std::vector<double>> targets(num_decisions_);
    double total = 0.0;
    for (const auto& t : trace) {
        check_decision(t.decision, num_decisions_, "LinearRewardModel::fit");
        const auto d = static_cast<std::size_t>(t.decision);
        features[d].push_back(t.context.flattened());
        targets[d].push_back(t.reward);
        total += t.reward;
    }
    // Fit into locals so a throwing fit leaves the previous one intact.
    std::vector<stats::LinearRegression> per_decision(num_decisions_);
    std::vector<bool> has_model(num_decisions_, false);
    for (std::size_t d = 0; d < num_decisions_; ++d) {
        if (features[d].empty()) continue;
        per_decision[d].fit(features[d], targets[d], l2_);
        has_model[d] = true;
    }
    per_decision_ = std::move(per_decision);
    has_model_ = std::move(has_model);
    global_mean_ = trace.empty() ? 0.0 : total / static_cast<double>(trace.size());
    fitted_ = true;
}

double LinearRewardModel::predict(const ClientContext& context, Decision d) const {
    if (!fitted_) throw std::logic_error("LinearRewardModel::predict before fit");
    check_decision(d, num_decisions_, "LinearRewardModel::predict");
    const auto index = static_cast<std::size_t>(d);
    if (!has_model_[index]) return global_mean_;
    return per_decision_[index].predict(context.flattened());
}

void LinearRewardModel::predict_row(const ClientContext& context,
                                    double* out) const {
    if (!fitted_)
        throw std::logic_error("LinearRewardModel::predict_row before fit");
    const std::vector<double> flat = context.flattened();
    for (std::size_t d = 0; d < num_decisions_; ++d)
        out[d] = has_model_[d] ? per_decision_[d].predict(flat) : global_mean_;
}

KnnRewardModel::KnnRewardModel(std::size_t num_decisions, std::size_t k,
                               bool one_hot_categoricals)
    : num_decisions_(num_decisions), k_(k), one_hot_(one_hot_categoricals) {
    if (num_decisions_ == 0)
        throw std::invalid_argument("KnnRewardModel: empty decision space");
    if (k_ == 0) throw std::invalid_argument("KnnRewardModel: k must be > 0");
}

std::vector<double> KnnRewardModel::encode(
    const ClientContext& context,
    const std::vector<std::int32_t>& cardinalities) const {
    if (!one_hot_) return context.flattened();
    std::vector<double> out(context.numeric.begin(), context.numeric.end());
    for (std::size_t i = 0; i < context.categorical.size(); ++i) {
        const std::int32_t cardinality =
            i < cardinalities.size() ? cardinalities[i] : 0;
        const std::size_t base = out.size();
        out.resize(base + static_cast<std::size_t>(std::max(cardinality, 1)), 0.0);
        const std::int32_t value = context.categorical[i];
        if (value >= 0 && value < cardinality)
            out[base + static_cast<std::size_t>(value)] = 1.0;
    }
    return out;
}

void KnnRewardModel::fit(const Trace& trace) {
    validate_trace(trace);
    // Everything is fit into locals so a throwing fit leaves the previous
    // one intact. First infer categorical cardinalities for one-hot encoding.
    std::vector<std::int32_t> cardinalities;
    if (one_hot_) {
        for (const auto& t : trace) {
            if (t.context.categorical.size() > cardinalities.size())
                cardinalities.resize(t.context.categorical.size(), 0);
            for (std::size_t i = 0; i < t.context.categorical.size(); ++i)
                cardinalities[i] =
                    std::max(cardinalities[i], t.context.categorical[i] + 1);
        }
    }

    std::vector<std::vector<std::vector<double>>> features(num_decisions_);
    std::vector<std::vector<double>> targets(num_decisions_);
    double total = 0.0;
    for (const auto& t : trace) {
        check_decision(t.decision, num_decisions_, "KnnRewardModel::fit");
        const auto d = static_cast<std::size_t>(t.decision);
        features[d].push_back(encode(t.context, cardinalities));
        targets[d].push_back(t.reward);
        total += t.reward;
    }
    std::vector<stats::KnnRegressor> per_decision(num_decisions_,
                                                  stats::KnnRegressor{k_});
    std::vector<bool> has_model(num_decisions_, false);
    for (std::size_t d = 0; d < num_decisions_; ++d) {
        if (features[d].empty()) continue;
        per_decision[d].fit(features[d], targets[d]);
        has_model[d] = true;
    }
    cardinalities_ = std::move(cardinalities);
    per_decision_ = std::move(per_decision);
    has_model_ = std::move(has_model);
    global_mean_ = trace.empty() ? 0.0 : total / static_cast<double>(trace.size());
    fitted_ = true;
}

double KnnRewardModel::predict(const ClientContext& context, Decision d) const {
    if (!fitted_) throw std::logic_error("KnnRewardModel::predict before fit");
    check_decision(d, num_decisions_, "KnnRewardModel::predict");
    const auto index = static_cast<std::size_t>(d);
    if (!has_model_[index]) return global_mean_;
    return per_decision_[index].predict(encode(context, cardinalities_));
}

void KnnRewardModel::predict_row(const ClientContext& context,
                                 double* out) const {
    if (!fitted_)
        throw std::logic_error("KnnRewardModel::predict_row before fit");
    const std::vector<double> encoded = encode(context, cardinalities_);
    for (std::size_t d = 0; d < num_decisions_; ++d)
        out[d] = has_model_[d] ? per_decision_[d].predict(encoded) : global_mean_;
}

void KnnRewardModel::predict_rows(const ClientContext* const* contexts,
                                  std::size_t count, double* out) const {
    if (!fitted_)
        throw std::logic_error("KnnRewardModel::predict_rows before fit");
    // Batch size bounds the encoded-query scratch (~batch × dims doubles)
    // so one KD-tree's blocks plus the batch fit in L2 together.
    constexpr std::size_t kRowBatch = 256;
    std::vector<std::vector<double>> encoded;
    encoded.reserve(std::min(count, kRowBatch));
    for (std::size_t base = 0; base < count; base += kRowBatch) {
        const std::size_t batch = std::min(kRowBatch, count - base);
        encoded.clear();
        for (std::size_t i = 0; i < batch; ++i)
            encoded.push_back(encode(*contexts[base + i], cardinalities_));
        // Decision-major: one tree serves the whole batch before the next
        // tree is touched. Each out[row * num_decisions_ + d] gets exactly
        // the value predict_row would have written — entries are
        // independent, so the loop order is invisible in the result.
        for (std::size_t d = 0; d < num_decisions_; ++d) {
            double* col = out + base * num_decisions_ + d;
            if (!has_model_[d]) {
                for (std::size_t i = 0; i < batch; ++i)
                    col[i * num_decisions_] = global_mean_;
                continue;
            }
            const stats::KnnRegressor& reg = per_decision_[d];
            for (std::size_t i = 0; i < batch; ++i)
                col[i * num_decisions_] = reg.predict(encoded[i]);
        }
    }
}

std::unique_ptr<RewardModel> fit_reward_model(RewardModelKind kind,
                                              std::size_t num_decisions,
                                              const Trace& trace) {
    switch (kind) {
        case RewardModelKind::kTabular: {
            auto model = std::make_unique<TabularRewardModel>(num_decisions);
            model->fit(trace);
            return model;
        }
        case RewardModelKind::kLinear: {
            auto model = std::make_unique<LinearRewardModel>(num_decisions);
            model->fit(trace);
            return model;
        }
        case RewardModelKind::kKnn: {
            auto model = std::make_unique<KnnRewardModel>(num_decisions);
            model->fit(trace);
            return model;
        }
    }
    throw std::invalid_argument("fit_reward_model: unknown kind");
}

} // namespace dre::core
