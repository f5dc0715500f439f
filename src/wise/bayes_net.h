// Discrete Bayesian network with explicit CPTs — the general machinery
// behind WISE-style what-if reasoning [38].
//
// Features: arbitrary DAG structure with cycle detection, CPT estimation
// from data (Laplace-smoothed), exact posterior inference by variable
// elimination with a memoized query cache (plus the original full-joint
// enumeration as a reference implementation), and Chow-Liu tree structure
// learning (maximum mutual-information spanning tree) for learning
// structure from traces.
#ifndef DRE_WISE_BAYES_NET_H
#define DRE_WISE_BAYES_NET_H

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "wise/cbn.h" // Assignment

namespace dre::wise {

class BayesianNetwork {
public:
    // One node per variable; cardinalities fixed at construction.
    explicit BayesianNetwork(std::vector<std::int32_t> cardinalities);

    std::size_t num_variables() const noexcept { return cardinalities_.size(); }
    std::int32_t cardinality(std::size_t var) const;

    // Replace `var`'s parent set. Throws std::invalid_argument if this
    // would create a cycle or reference an unknown variable.
    void set_parents(std::size_t var, std::vector<std::size_t> parents);
    const std::vector<std::size_t>& parents(std::size_t var) const;

    // Estimate all CPTs from complete-data rows with Laplace smoothing.
    void fit(const std::vector<Assignment>& rows, double laplace = 1.0);

    // P(var = value | parent values taken from `assignment`).
    double conditional_probability(std::size_t var, const Assignment& assignment) const;

    // Joint probability of a complete assignment.
    double joint_probability(const Assignment& assignment) const;

    // Exact posterior P(query_var | evidence) by variable elimination
    // (min-width elimination order, deterministic index tie-break), with
    // results memoized per (query_var, evidence) — repeated what-if queries
    // (the reward-model hot path) are answered from the cache. The cache is
    // invalidated by fit() / set_parents() and is safe to populate from
    // concurrent readers. Throws std::runtime_error if an intermediate
    // factor would exceed the state-space cap.
    std::vector<double> posterior(std::size_t query_var,
                                  const std::map<std::size_t, std::int32_t>& evidence) const;

    // Reference implementation: exact posterior by enumeration of the full
    // joint over the free variables. Used by the equivalence tests and the
    // kernel benchmarks; same validation and error behaviour as the
    // original posterior(). Throws std::runtime_error if the state space
    // exceeds the (tiny) enumeration cap.
    std::vector<double> posterior_enumerate(
        std::size_t query_var,
        const std::map<std::size_t, std::int32_t>& evidence) const;

    // Number of memoized posterior queries (diagnostics / tests).
    std::size_t posterior_cache_size() const;

    // Hit/miss accounting for the posterior memo cache. Counts accumulate
    // across posterior() calls and reset — together with the cache itself —
    // on fit() / set_parents().
    struct CacheStats {
        std::size_t hits = 0;
        std::size_t misses = 0;
        std::size_t size = 0;
    };
    CacheStats posterior_cache_stats() const;

    // Variables in a valid topological order.
    const std::vector<std::size_t>& topological_order() const noexcept {
        return topo_order_;
    }

    bool fitted() const noexcept { return fitted_; }

private:
    struct PosteriorCache; // shared_mutex-guarded memo map (bayes_net.cpp)

    std::size_t parent_configuration(std::size_t var,
                                     const Assignment& assignment) const;
    void recompute_topological_order();
    void check_assignment(const Assignment& assignment) const;
    void check_query(std::size_t query_var,
                     const std::map<std::size_t, std::int32_t>& evidence) const;
    void invalidate_posterior_cache();

    std::vector<std::int32_t> cardinalities_;
    std::vector<std::vector<std::size_t>> parents_;
    // cpt_[var][parent_config * cardinality + value] = probability.
    std::vector<std::vector<double>> cpt_;
    std::vector<std::size_t> topo_order_;
    bool fitted_ = false;
    // Replaced wholesale (never mutated through a shared handle) on
    // fit()/set_parents(), so copies of the network each keep a cache
    // consistent with their own parameters.
    std::shared_ptr<PosteriorCache> posterior_cache_;
};

// Chow-Liu structure learning: the maximum-spanning tree over pairwise
// mutual information, rooted at variable 0. Returns a fitted network.
BayesianNetwork learn_chow_liu_tree(const std::vector<Assignment>& rows,
                                    std::vector<std::int32_t> cardinalities,
                                    double laplace = 1.0);

// Empirical mutual information (nats) between columns a and b of `rows`.
double mutual_information(const std::vector<Assignment>& rows, std::size_t a,
                          std::size_t b, std::int32_t cardinality_a,
                          std::int32_t cardinality_b);

} // namespace dre::wise

#endif // DRE_WISE_BAYES_NET_H
