// A small causal-Bayesian-network-style predictor in the spirit of
// WISE (Tariq et al. [38]).
//
// WISE learns a CBN over discrete configuration variables and predicts a
// continuous response variable (request response time) for what-if
// configurations. We model the response node's conditional expectation
// with a *hierarchical conditional table*: parents are selected greedily by
// explained variance, and prediction for an assignment backs off along the
// parent order until it reaches a cell with enough data.
//
// This back-off is precisely how the paper's Fig. 4 pathology arises: with
// a small trace the full-interaction cell (ISP-1, FE-1, BE-2) is starved,
// the model falls back to a coarser conditional ("requests on FE-1 are
// slow") and mispredicts the what-if combination.
#ifndef DRE_WISE_CBN_H
#define DRE_WISE_CBN_H

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

namespace dre::wise {

// A categorical assignment: value per variable, values in [0, cardinality).
using Assignment = std::vector<std::int32_t>;

struct CbnOptions {
    // Cells with fewer samples than this are considered unreliable and
    // trigger back-off to the next-coarser conditional.
    std::size_t min_cell_samples = 30;
    // Stop adding parents once the incremental variance reduction drops
    // below this fraction of total variance.
    double min_gain_fraction = 0.01;
    // Cap on the number of parents (the WISE paper prunes aggressively).
    std::size_t max_parents = 4;
};

class CbnResponseModel {
public:
    explicit CbnResponseModel(std::vector<std::int32_t> cardinalities,
                              CbnOptions options = {});

    // Learn structure (parent order) and conditional tables from data.
    void fit(const std::vector<Assignment>& rows, std::span<const double> response);

    // E^[response | assignment] with hierarchical back-off.
    double predict(const Assignment& assignment) const;

    // Selected parents in greedy order (for tests / introspection).
    const std::vector<std::size_t>& parent_order() const noexcept {
        return parent_order_;
    }

    // Number of samples in the deepest cell used to answer `assignment`
    // (diagnostic: 0 means global-mean fallback).
    std::size_t support(const Assignment& assignment) const;


private:
    struct Cell {
        double mean = 0.0;
        std::size_t count = 0;
        void add(double x) {
            ++count;
            mean += (x - mean) / static_cast<double>(count);
        }
    };
    // Level L table: keyed by the first L parents' values.
    using Table = std::unordered_map<std::uint64_t, Cell>;

    std::uint64_t key_for(const Assignment& assignment, std::size_t depth) const;
    void check_assignment(const Assignment& assignment) const;

    std::vector<std::int32_t> cardinalities_;
    CbnOptions options_;
    std::vector<std::size_t> parent_order_;
    std::vector<Table> tables_; // tables_[L-1] conditions on first L parents
    double global_mean_ = 0.0;
    std::size_t n_ = 0;
    bool fitted_ = false;
};

} // namespace dre::wise

#endif // DRE_WISE_CBN_H
