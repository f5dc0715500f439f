#include "wise/bayes_net.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>

#include "obs/obs.h"

namespace dre::wise {
namespace {

// Cap on the full-joint enumeration state space (reference path) and on any
// single variable-elimination factor: both fail loudly instead of thrashing.
constexpr double kStateSpaceCap = 2e7;

// A factor over a sorted set of variables, table in row-major order with
// the *last* variable fastest. Used only inside posterior().
struct Factor {
    std::vector<std::size_t> vars; // ascending
    std::vector<double> table;
};

// FNV-1a over the (query_var, evidence...) serialization.
struct PosteriorKeyHash {
    std::size_t operator()(const std::vector<std::int64_t>& key) const noexcept {
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (std::int64_t v : key) {
            h ^= static_cast<std::uint64_t>(v);
            h *= 0x100000001b3ull;
        }
        return static_cast<std::size_t>(h);
    }
};

} // namespace

// Memoized posterior results. Concurrent readers (reward-model predictions
// inside dre::par loops) take the shared lock; the first thread to answer a
// query inserts under the exclusive lock. Cached values are bit-identical
// to a fresh computation, so hits never perturb determinism.
struct BayesianNetwork::PosteriorCache {
    mutable std::shared_mutex mutex;
    std::unordered_map<std::vector<std::int64_t>, std::vector<double>,
                       PosteriorKeyHash>
        map;
    // Per-network hit/miss accounting (the registry's cbn.* counters are
    // process-global). Relaxed: scrape-side statistics only.
    std::atomic<std::size_t> hits{0};
    std::atomic<std::size_t> misses{0};
};

BayesianNetwork::BayesianNetwork(std::vector<std::int32_t> cardinalities)
    : cardinalities_(std::move(cardinalities)),
      parents_(cardinalities_.size()),
      cpt_(cardinalities_.size()),
      posterior_cache_(std::make_shared<PosteriorCache>()) {
    if (cardinalities_.empty())
        throw std::invalid_argument("BayesianNetwork: no variables");
    for (std::int32_t c : cardinalities_)
        if (c <= 0)
            throw std::invalid_argument("BayesianNetwork: cardinality must be > 0");
    recompute_topological_order();
}

std::int32_t BayesianNetwork::cardinality(std::size_t var) const {
    if (var >= cardinalities_.size())
        throw std::out_of_range("BayesianNetwork::cardinality");
    return cardinalities_[var];
}

void BayesianNetwork::set_parents(std::size_t var, std::vector<std::size_t> parents) {
    if (var >= cardinalities_.size())
        throw std::out_of_range("BayesianNetwork::set_parents");
    for (std::size_t p : parents) {
        if (p >= cardinalities_.size())
            throw std::invalid_argument("BayesianNetwork: unknown parent");
        if (p == var)
            throw std::invalid_argument("BayesianNetwork: self-parent");
    }
    const std::vector<std::size_t> saved = std::move(parents_[var]);
    parents_[var] = std::move(parents);
    try {
        recompute_topological_order(); // throws on cycle
    } catch (...) {
        parents_[var] = saved;
        throw;
    }
    fitted_ = false;
    invalidate_posterior_cache();
}

const std::vector<std::size_t>& BayesianNetwork::parents(std::size_t var) const {
    if (var >= parents_.size()) throw std::out_of_range("BayesianNetwork::parents");
    return parents_[var];
}

void BayesianNetwork::recompute_topological_order() {
    const std::size_t n = cardinalities_.size();
    std::vector<int> state(n, 0); // 0 unvisited, 1 visiting, 2 done
    std::vector<std::size_t> order;
    order.reserve(n);
    // DFS over parent edges: parents come before children.
    std::function<void(std::size_t)> visit = [&](std::size_t v) {
        if (state[v] == 1)
            throw std::invalid_argument("BayesianNetwork: cycle detected");
        if (state[v] == 2) return;
        state[v] = 1;
        for (std::size_t p : parents_[v]) visit(p);
        state[v] = 2;
        order.push_back(v);
    };
    for (std::size_t v = 0; v < n; ++v) visit(v);
    topo_order_ = std::move(order);
}

void BayesianNetwork::check_assignment(const Assignment& assignment) const {
    if (assignment.size() != cardinalities_.size())
        throw std::invalid_argument("BayesianNetwork: assignment arity mismatch");
    for (std::size_t v = 0; v < assignment.size(); ++v)
        if (assignment[v] < 0 || assignment[v] >= cardinalities_[v])
            throw std::invalid_argument("BayesianNetwork: value out of range");
}

std::size_t BayesianNetwork::parent_configuration(std::size_t var,
                                                  const Assignment& assignment) const {
    std::size_t config = 0;
    for (std::size_t p : parents_[var]) {
        config = config * static_cast<std::size_t>(cardinalities_[p]) +
                 static_cast<std::size_t>(assignment[p]);
    }
    return config;
}

void BayesianNetwork::fit(const std::vector<Assignment>& rows, double laplace) {
    if (rows.empty()) throw std::invalid_argument("BayesianNetwork::fit: no rows");
    if (laplace < 0.0)
        throw std::invalid_argument("BayesianNetwork::fit: negative smoothing");
    for (const auto& row : rows) check_assignment(row);

    for (std::size_t var = 0; var < cardinalities_.size(); ++var) {
        std::size_t configs = 1;
        for (std::size_t p : parents_[var])
            configs *= static_cast<std::size_t>(cardinalities_[p]);
        const auto k = static_cast<std::size_t>(cardinalities_[var]);
        std::vector<double> counts(configs * k, laplace);
        for (const auto& row : rows) {
            const std::size_t config = parent_configuration(var, row);
            counts[config * k + static_cast<std::size_t>(row[var])] += 1.0;
        }
        // Normalize per configuration.
        for (std::size_t c = 0; c < configs; ++c) {
            double total = 0.0;
            for (std::size_t v = 0; v < k; ++v) total += counts[c * k + v];
            if (total <= 0.0) {
                for (std::size_t v = 0; v < k; ++v)
                    counts[c * k + v] = 1.0 / static_cast<double>(k);
            } else {
                for (std::size_t v = 0; v < k; ++v) counts[c * k + v] /= total;
            }
        }
        cpt_[var] = std::move(counts);
    }
    fitted_ = true;
    invalidate_posterior_cache();
}

double BayesianNetwork::conditional_probability(std::size_t var,
                                                const Assignment& assignment) const {
    if (!fitted_) throw std::logic_error("BayesianNetwork used before fit");
    check_assignment(assignment);
    if (var >= cardinalities_.size())
        throw std::out_of_range("BayesianNetwork::conditional_probability");
    const auto k = static_cast<std::size_t>(cardinalities_[var]);
    const std::size_t config = parent_configuration(var, assignment);
    return cpt_[var][config * k + static_cast<std::size_t>(assignment[var])];
}

double BayesianNetwork::joint_probability(const Assignment& assignment) const {
    double probability = 1.0;
    for (std::size_t var = 0; var < cardinalities_.size(); ++var)
        probability *= conditional_probability(var, assignment);
    return probability;
}

void BayesianNetwork::check_query(
    std::size_t query_var,
    const std::map<std::size_t, std::int32_t>& evidence) const {
    if (!fitted_) throw std::logic_error("BayesianNetwork used before fit");
    if (query_var >= cardinalities_.size())
        throw std::out_of_range("BayesianNetwork::posterior");
    for (const auto& [var, value] : evidence) {
        if (var >= cardinalities_.size())
            throw std::invalid_argument("BayesianNetwork: unknown evidence variable");
        if (value < 0 || value >= cardinalities_[var])
            throw std::invalid_argument("BayesianNetwork: evidence value out of range");
    }
}

void BayesianNetwork::invalidate_posterior_cache() {
    DRE_COUNTER_INC("cbn.cache_invalidations");
    posterior_cache_ = std::make_shared<PosteriorCache>();
}

std::size_t BayesianNetwork::posterior_cache_size() const {
    const std::shared_ptr<PosteriorCache> cache = posterior_cache_;
    std::shared_lock<std::shared_mutex> lock(cache->mutex);
    return cache->map.size();
}

BayesianNetwork::CacheStats BayesianNetwork::posterior_cache_stats() const {
    const std::shared_ptr<PosteriorCache> cache = posterior_cache_;
    CacheStats stats;
    stats.hits = cache->hits.load(std::memory_order_relaxed);
    stats.misses = cache->misses.load(std::memory_order_relaxed);
    std::shared_lock<std::shared_mutex> lock(cache->mutex);
    stats.size = cache->map.size();
    return stats;
}

std::vector<double> BayesianNetwork::posterior_enumerate(
    std::size_t query_var,
    const std::map<std::size_t, std::int32_t>& evidence) const {
    check_query(query_var, evidence);

    // Enumerate the full joint over the free variables (small networks).
    std::vector<std::size_t> free_vars;
    for (std::size_t v = 0; v < cardinalities_.size(); ++v)
        if (v != query_var && !evidence.contains(v)) free_vars.push_back(v);
    double state_space = static_cast<double>(cardinalities_[query_var]);
    for (std::size_t v : free_vars) state_space *= cardinalities_[v];
    if (state_space > kStateSpaceCap)
        throw std::runtime_error("BayesianNetwork::posterior: state space too large");

    Assignment assignment(cardinalities_.size(), 0);
    for (const auto& [var, value] : evidence)
        if (var != query_var) assignment[var] = value;

    const auto kq = static_cast<std::size_t>(cardinalities_[query_var]);
    std::vector<double> unnormalized(kq, 0.0);
    // Recursive enumeration over free variables.
    std::function<void(std::size_t)> enumerate = [&](std::size_t index) {
        if (index == free_vars.size()) {
            for (std::size_t q = 0; q < kq; ++q) {
                assignment[query_var] = static_cast<std::int32_t>(q);
                unnormalized[q] += joint_probability(assignment);
            }
            return;
        }
        const std::size_t var = free_vars[index];
        for (std::int32_t v = 0; v < cardinalities_[var]; ++v) {
            assignment[var] = v;
            enumerate(index + 1);
        }
    };
    enumerate(0);

    double total = 0.0;
    for (double u : unnormalized) total += u;
    if (total <= 0.0)
        throw std::runtime_error("BayesianNetwork::posterior: zero-probability evidence");
    for (double& u : unnormalized) u /= total;
    return unnormalized;
}

std::vector<double> BayesianNetwork::posterior(
    std::size_t query_var,
    const std::map<std::size_t, std::int32_t>& evidence) const {
    check_query(query_var, evidence);
    const std::size_t n = cardinalities_.size();

    // --- Memo lookup ------------------------------------------------------
    std::vector<std::int64_t> key;
    key.reserve(1 + 2 * evidence.size());
    key.push_back(static_cast<std::int64_t>(query_var));
    for (const auto& [var, value] : evidence) { // std::map: sorted, canonical
        if (var == query_var) continue;         // evidence on the query is ignored
        key.push_back(static_cast<std::int64_t>(var));
        key.push_back(static_cast<std::int64_t>(value));
    }
    const std::shared_ptr<PosteriorCache> cache = posterior_cache_;
    {
        std::shared_lock<std::shared_mutex> lock(cache->mutex);
        const auto it = cache->map.find(key);
        if (it != cache->map.end()) {
            cache->hits.fetch_add(1, std::memory_order_relaxed);
            DRE_COUNTER_INC("cbn.cache_hits");
            return it->second;
        }
    }
    cache->misses.fetch_add(1, std::memory_order_relaxed);
    DRE_COUNTER_INC("cbn.cache_misses");
    DRE_SPAN("cbn.posterior_ve");

    // --- Variable elimination --------------------------------------------
    // Evidence-reduced values per variable; kFree marks a free variable.
    constexpr std::int32_t kFree = -1;
    std::vector<std::int32_t> fixed(n, kFree);
    for (const auto& [var, value] : evidence)
        if (var != query_var) fixed[var] = value;

    const auto card = [&](std::size_t v) {
        return static_cast<std::size_t>(cardinalities_[v]);
    };

    // Index of `values` into a factor's table (vars ascending, last fastest).
    const auto table_index = [&](const Factor& f,
                                 const std::vector<std::int32_t>& values) {
        std::size_t idx = 0;
        for (std::size_t v : f.vars)
            idx = idx * card(v) + static_cast<std::size_t>(values[v]);
        return idx;
    };

    // Build a factor over the free variables of `scope` (ascending) by
    // evaluating `eval` at every combination, odometer order (last fastest).
    std::vector<std::int32_t> values(n, 0);
    for (std::size_t v = 0; v < n; ++v)
        if (fixed[v] != kFree) values[v] = fixed[v];
    const auto make_factor = [&](std::vector<std::size_t> scope,
                                 const auto& eval) {
        Factor f;
        f.vars = std::move(scope);
        double size = 1.0;
        for (std::size_t v : f.vars) size *= static_cast<double>(card(v));
        if (size > kStateSpaceCap)
            throw std::runtime_error(
                "BayesianNetwork::posterior: state space too large");
        f.table.resize(static_cast<std::size_t>(size));
        DRE_HIST_RECORD("cbn.ve_factor_cells", f.table.size());
        for (std::size_t v : f.vars) values[v] = 0;
        for (std::size_t idx = 0; idx < f.table.size(); ++idx) {
            f.table[idx] = eval(values);
            // Advance the odometer over f.vars, last variable fastest.
            for (std::size_t pos = f.vars.size(); pos-- > 0;) {
                const std::size_t v = f.vars[pos];
                if (static_cast<std::size_t>(++values[v]) < card(v)) break;
                values[v] = 0;
            }
        }
        return f;
    };

    // One evidence-reduced CPT factor per variable.
    std::vector<Factor> factors;
    factors.reserve(n);
    for (std::size_t v = 0; v < n; ++v) {
        std::vector<std::size_t> scope;
        for (std::size_t p : parents_[v])
            if (fixed[p] == kFree) scope.push_back(p);
        if (fixed[v] == kFree) scope.push_back(v);
        std::sort(scope.begin(), scope.end());
        scope.erase(std::unique(scope.begin(), scope.end()), scope.end());
        factors.push_back(make_factor(
            std::move(scope), [&](const std::vector<std::int32_t>& vals) {
                std::size_t config = 0;
                for (std::size_t p : parents_[v])
                    config = config * card(p) + static_cast<std::size_t>(vals[p]);
                return cpt_[v][config * card(v) + static_cast<std::size_t>(vals[v])];
            }));
    }

    std::vector<std::size_t> to_eliminate;
    for (std::size_t v = 0; v < n; ++v)
        if (v != query_var && fixed[v] == kFree) to_eliminate.push_back(v);

    while (!to_eliminate.empty()) {
        // Min-width heuristic: eliminate the variable whose product factor
        // (union of adjacent scopes minus the variable) is smallest; ties
        // broken by variable index, so the elimination order — and hence the
        // floating-point result — is fully deterministic.
        std::size_t best_var = 0, best_pos = 0;
        double best_width = std::numeric_limits<double>::infinity();
        for (std::size_t pos = 0; pos < to_eliminate.size(); ++pos) {
            const std::size_t u = to_eliminate[pos];
            std::vector<std::size_t> joint;
            for (const Factor& f : factors) {
                if (std::find(f.vars.begin(), f.vars.end(), u) == f.vars.end())
                    continue;
                joint.insert(joint.end(), f.vars.begin(), f.vars.end());
            }
            std::sort(joint.begin(), joint.end());
            joint.erase(std::unique(joint.begin(), joint.end()), joint.end());
            double width = 1.0;
            for (std::size_t v : joint)
                if (v != u) width *= static_cast<double>(card(v));
            if (width < best_width) {
                best_width = width;
                best_var = u;
                best_pos = pos;
            }
        }
        const std::size_t u = best_var;
        to_eliminate.erase(to_eliminate.begin() +
                           static_cast<std::ptrdiff_t>(best_pos));

        // Gather the factors adjacent to u (in list order — deterministic
        // product order), multiply, and sum u out.
        std::vector<Factor> adjacent, remaining;
        for (Factor& f : factors) {
            if (std::find(f.vars.begin(), f.vars.end(), u) != f.vars.end())
                adjacent.push_back(std::move(f));
            else
                remaining.push_back(std::move(f));
        }
        std::vector<std::size_t> product_scope;
        for (const Factor& f : adjacent)
            product_scope.insert(product_scope.end(), f.vars.begin(),
                                 f.vars.end());
        std::sort(product_scope.begin(), product_scope.end());
        product_scope.erase(
            std::unique(product_scope.begin(), product_scope.end()),
            product_scope.end());

        Factor summed;
        for (std::size_t v : product_scope)
            if (v != u) summed.vars.push_back(v);
        double out_size = 1.0;
        for (std::size_t v : summed.vars)
            out_size *= static_cast<double>(card(v));
        if (out_size * static_cast<double>(card(u)) > kStateSpaceCap)
            throw std::runtime_error(
                "BayesianNetwork::posterior: state space too large");
        summed.table.assign(static_cast<std::size_t>(out_size), 0.0);
        DRE_HIST_RECORD("cbn.ve_factor_cells", summed.table.size());

        // Odometer over the product scope (u included); each cell of the
        // product accumulates into the u-summed output slot.
        for (std::size_t v : product_scope) values[v] = 0;
        double cells = out_size * static_cast<double>(card(u));
        for (std::size_t cell = 0; cell < static_cast<std::size_t>(cells);
             ++cell) {
            double product = 1.0;
            for (const Factor& f : adjacent) product *= f.table[table_index(f, values)];
            summed.table[table_index(summed, values)] += product;
            for (std::size_t pos = product_scope.size(); pos-- > 0;) {
                const std::size_t v = product_scope[pos];
                if (static_cast<std::size_t>(++values[v]) < card(v)) break;
                values[v] = 0;
            }
        }
        factors = std::move(remaining);
        factors.push_back(std::move(summed));
    }

    // Multiply the survivors (scopes are {query_var} or empty) and normalize.
    const auto kq = card(query_var);
    std::vector<double> result(kq, 1.0);
    for (const Factor& f : factors) {
        if (f.vars.empty()) {
            for (double& r : result) r *= f.table[0];
        } else {
            for (std::size_t q = 0; q < kq; ++q) result[q] *= f.table[q];
        }
    }
    double total = 0.0;
    for (double r : result) total += r;
    if (total <= 0.0)
        throw std::runtime_error("BayesianNetwork::posterior: zero-probability evidence");
    for (double& r : result) r /= total;

    {
        std::unique_lock<std::shared_mutex> lock(cache->mutex);
        cache->map.emplace(key, result);
    }
    return result;
}

double mutual_information(const std::vector<Assignment>& rows, std::size_t a,
                          std::size_t b, std::int32_t cardinality_a,
                          std::int32_t cardinality_b) {
    if (rows.empty()) throw std::invalid_argument("mutual_information: no rows");
    const auto ka = static_cast<std::size_t>(cardinality_a);
    const auto kb = static_cast<std::size_t>(cardinality_b);
    std::vector<double> joint(ka * kb, 0.0), pa(ka, 0.0), pb(kb, 0.0);
    const double weight = 1.0 / static_cast<double>(rows.size());
    for (const auto& row : rows) {
        const auto va = static_cast<std::size_t>(row[a]);
        const auto vb = static_cast<std::size_t>(row[b]);
        if (va >= ka || vb >= kb)
            throw std::invalid_argument("mutual_information: value out of range");
        joint[va * kb + vb] += weight;
        pa[va] += weight;
        pb[vb] += weight;
    }
    double mi = 0.0;
    for (std::size_t i = 0; i < ka; ++i)
        for (std::size_t j = 0; j < kb; ++j) {
            const double pij = joint[i * kb + j];
            if (pij > 0.0) mi += pij * std::log(pij / (pa[i] * pb[j]));
        }
    return std::max(mi, 0.0);
}

BayesianNetwork learn_chow_liu_tree(const std::vector<Assignment>& rows,
                                    std::vector<std::int32_t> cardinalities,
                                    double laplace) {
    if (rows.empty()) throw std::invalid_argument("learn_chow_liu_tree: no rows");
    const std::size_t n = cardinalities.size();
    BayesianNetwork network(cardinalities);
    if (n > 1) {
        // Prim's algorithm on the complete MI graph, rooted at variable 0.
        std::vector<bool> in_tree(n, false);
        std::vector<double> best_mi(n, -1.0);
        std::vector<std::size_t> best_parent(n, 0);
        in_tree[0] = true;
        for (std::size_t v = 1; v < n; ++v) {
            best_mi[v] = mutual_information(rows, 0, v, cardinalities[0],
                                            cardinalities[v]);
            best_parent[v] = 0;
        }
        for (std::size_t added = 1; added < n; ++added) {
            std::size_t pick = n;
            for (std::size_t v = 0; v < n; ++v)
                if (!in_tree[v] && (pick == n || best_mi[v] > best_mi[pick]))
                    pick = v;
            in_tree[pick] = true;
            network.set_parents(pick, {best_parent[pick]});
            for (std::size_t v = 0; v < n; ++v) {
                if (in_tree[v]) continue;
                const double mi = mutual_information(rows, pick, v,
                                                     cardinalities[pick],
                                                     cardinalities[v]);
                if (mi > best_mi[v]) {
                    best_mi[v] = mi;
                    best_parent[v] = pick;
                }
            }
        }
    }
    network.fit(rows, laplace);
    return network;
}

} // namespace dre::wise
