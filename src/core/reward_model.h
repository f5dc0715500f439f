// Reward models r^(c, d) — the Direct-Method ingredient (paper §3).
//
// "DM uses a reward model r^(c,d) to predict the reward of any client c and
//  decision d." Model misspecification is the paper's first pitfall
// (§2.2.1); we therefore provide several model families with different
// bias/variance trade-offs, all fit from logged traces.
#ifndef DRE_CORE_REWARD_MODEL_H
#define DRE_CORE_REWARD_MODEL_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "stats/knn.h"
#include "stats/regression.h"
#include "trace/trace.h"
#include "trace/types.h"

namespace dre::core {

class RewardModel {
public:
    virtual ~RewardModel() = default;

    // Predicted reward r^(c, d).
    virtual double predict(const ClientContext& context, Decision d) const = 0;

    // Fill out[0..num_decisions) with predict(context, d) for every d —
    // the q̂ row-fill hot path (qhat.cpp, streaming). The default loops
    // predict(); models whose per-context work is worth hoisting out of
    // the decision loop (fingerprinting, flattening, one-hot encoding)
    // override it. Overrides must return bit-identical values to the
    // default loop — PredictionMatrix's "same arithmetic, only faster"
    // contract depends on it.
    virtual void predict_row(const ClientContext& context, double* out) const {
        const std::size_t n = num_decisions();
        for (std::size_t d = 0; d < n; ++d)
            out[d] = predict(context, static_cast<Decision>(d));
    }

    // Fill `count` consecutive rows (row i starts at out + i *
    // num_decisions()) for contexts[0..count) — the bulk q̂ fill. The
    // default loops predict_row; models with per-decision state worth
    // keeping cache-resident across many contexts (e.g. one KD-tree per
    // decision) override it with a decision-major fill. Same contract as
    // predict_row: overrides must be bit-identical to the default loop.
    virtual void predict_rows(const ClientContext* const* contexts,
                              std::size_t count, double* out) const {
        const std::size_t n = num_decisions();
        for (std::size_t i = 0; i < count; ++i)
            predict_row(*contexts[i], out + i * n);
    }

    virtual std::size_t num_decisions() const noexcept = 0;

protected:
    RewardModel() = default;
    RewardModel(const RewardModel&) = default;
    RewardModel& operator=(const RewardModel&) = default;
};

// Same prediction for everything — the degenerate model. With value 0 it
// turns the DR estimator into plain IPS, which the unit tests exploit.
class ConstantRewardModel final : public RewardModel {
public:
    ConstantRewardModel(std::size_t num_decisions, double value);

    double predict(const ClientContext&, Decision) const override { return value_; }
    void predict_row(const ClientContext&, double* out) const override {
        for (std::size_t d = 0; d < num_decisions_; ++d) out[d] = value_;
    }
    std::size_t num_decisions() const noexcept override { return num_decisions_; }

private:
    std::size_t num_decisions_;
    double value_;
};

// Wraps a ground-truth function; used in tests/ablations as the "perfectly
// specified model" limit where DR should match DM exactly.
class OracleRewardModel final : public RewardModel {
public:
    using Fn = std::function<double(const ClientContext&, Decision)>;

    OracleRewardModel(std::size_t num_decisions, Fn fn);

    double predict(const ClientContext& context, Decision d) const override;
    std::size_t num_decisions() const noexcept override { return num_decisions_; }

private:
    std::size_t num_decisions_;
    Fn fn_;
};

// Tabular model: mean logged reward per (context fingerprint, decision)
// cell, falling back to the per-decision mean, then the global mean.
// Zero-bias where data exists; useless off the observed support — exactly
// the failure mode Fig. 4/Fig. 5 illustrate.
//
// Keyed by context: one open-addressing table over context fingerprints.
// A power-of-two slot array (linear probing, at most half full) holds each
// distinct context's first cell, an index into one dense cell array. A
// cell carries its context's fingerprint and chains the context's next
// cell, and the fallback row is fixed at fit time. A row is then one
// fingerprint, one probe, a copy of the fallback row and one store per
// populated cell.
class TabularRewardModel final : public RewardModel {
public:
    explicit TabularRewardModel(std::size_t num_decisions);

    void fit(const Trace& trace);

    double predict(const ClientContext& context, Decision d) const override;
    void predict_row(const ClientContext& context, double* out) const override;
    std::size_t num_decisions() const noexcept override { return num_decisions_; }

    // Number of populated (context, decision) cells.
    std::size_t cells() const noexcept { return cells_.size(); }

private:
    static constexpr std::uint32_t kNoCell = 0xffffffffu;

    struct MeanCount {
        double mean = 0.0;
        std::size_t count = 0;
        void add(double x) {
            ++count;
            mean += (x - mean) / static_cast<double>(count);
        }
    };

    struct Cell {
        std::uint64_t fingerprint = 0; // of the cell's context
        MeanCount reward;
        Decision decision = 0;
        std::uint32_t next = kNoCell; // the context's next cell
    };

    // The slot holding the first cell of `fingerprint`'s context, else the
    // empty slot where it would go.
    static std::size_t find_slot(const std::vector<std::uint32_t>& slots,
                                 const std::vector<Cell>& cells,
                                 std::uint64_t fingerprint);
    // The context's first cell, or nullptr for an unseen context.
    const Cell* first_cell(const ClientContext& context) const;
    const Cell* next_cell(const Cell& cell) const {
        return cell.next == kNoCell ? nullptr : &cells_[cell.next];
    }

    std::size_t num_decisions_;
    std::vector<std::uint32_t> slots_; // first cell per context, or kNoCell
    std::vector<Cell> cells_;          // each context's cells in fit order
    // Per decision: its mean when logged, else the global mean.
    std::vector<double> fallback_;
    bool fitted_ = false;
};

// One ridge regression per decision over flattened numeric features.
class LinearRewardModel final : public RewardModel {
public:
    explicit LinearRewardModel(std::size_t num_decisions, double l2 = 1e-4);

    void fit(const Trace& trace);

    double predict(const ClientContext& context, Decision d) const override;
    // Flattens the context once instead of once per decision.
    void predict_row(const ClientContext& context, double* out) const override;
    std::size_t num_decisions() const noexcept override { return num_decisions_; }

private:
    std::size_t num_decisions_;
    double l2_;
    std::vector<stats::LinearRegression> per_decision_;
    std::vector<bool> has_model_;
    double global_mean_ = 0.0;
    bool fitted_ = false;
};

// One k-NN regressor per decision (the paper's Fig. 7c DM model).
//
// With `one_hot_categoricals` (default), categorical features are expanded
// to indicator vectors before computing distances, so two different ASNs
// are equidistant instead of "close" when their integer codes happen to be.
class KnnRewardModel final : public RewardModel {
public:
    KnnRewardModel(std::size_t num_decisions, std::size_t k = 5,
                   bool one_hot_categoricals = true);

    void fit(const Trace& trace);

    double predict(const ClientContext& context, Decision d) const override;
    // One-hot-encodes the context once instead of once per decision — the
    // encode() allocation used to dominate small-k row fills.
    void predict_row(const ClientContext& context, double* out) const override;
    // Decision-major bulk fill: encodes a batch of contexts up front, then
    // answers all of them against one per-decision KD-tree before moving
    // to the next, so each tree's blocks stay cache-resident for the whole
    // batch instead of being evicted num_decisions times per tuple.
    void predict_rows(const ClientContext* const* contexts, std::size_t count,
                      double* out) const override;
    std::size_t num_decisions() const noexcept override { return num_decisions_; }

private:
    std::vector<double> encode(const ClientContext& context,
                               const std::vector<std::int32_t>& cardinalities) const;

    std::size_t num_decisions_;
    std::size_t k_;
    bool one_hot_;
    std::vector<std::int32_t> cardinalities_; // per categorical dim
    std::vector<stats::KnnRegressor> per_decision_;
    std::vector<bool> has_model_;
    double global_mean_ = 0.0;
    bool fitted_ = false;
};

// Model families selectable by the one-call Evaluator.
enum class RewardModelKind { kTabular, kLinear, kKnn };

std::unique_ptr<RewardModel> fit_reward_model(RewardModelKind kind,
                                              std::size_t num_decisions,
                                              const Trace& trace);

} // namespace dre::core

#endif // DRE_CORE_REWARD_MODEL_H
