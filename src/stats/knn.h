// k-nearest-neighbour regression (feature-standardized L2).
//
// The paper's Fig. 7c uses a k-NN reward model (citing Larose [25]) as the
// Direct-Method component inside DR for the CFA scenario. Those evaluations
// query the model once per (tuple, decision) pair per estimator, so the
// per-query cost dominates whole studies; queries are answered with a
// KD-tree over the standardized training points (brute-force scan kept as a
// reference implementation, selectable for equivalence tests).
//
// Both paths return *exactly* the same answer: the k nearest points are the
// k smallest (distance^2, training index) pairs — ties in distance broken
// by index — and targets are accumulated in ascending (distance^2, index)
// order, so the floating-point result is bit-identical whichever algorithm
// answered the query.
#ifndef DRE_STATS_KNN_H
#define DRE_STATS_KNN_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace dre::stats {

class KnnRegressor {
public:
    // Query algorithm selection. kAuto uses the KD-tree except for tiny
    // training sets, where the scan's simplicity wins; because both paths
    // are exactly equivalent this is a pure performance choice.
    enum class Algorithm { kAuto, kBruteForce, kKdTree };

    explicit KnnRegressor(std::size_t k = 5);

    // Stores (a standardized copy of) the training set and builds the
    // KD-tree over it.
    void fit(const std::vector<std::vector<double>>& rows,
             std::span<const double> targets);

    // Mean target of the k nearest training points.
    double predict(std::span<const double> features) const;

    // Batch queries answered concurrently (dre::par), one slot per query;
    // identical to calling predict per row, for any thread count.
    std::vector<double> predict_batch(
        const std::vector<std::vector<double>>& queries) const;

    void set_algorithm(Algorithm algorithm) noexcept { algorithm_ = algorithm; }

private:
    // (squared distance, original training index); ordered lexicographically,
    // which is exactly the tie-break both query paths implement.
    using Neighbor = std::pair<double, std::uint32_t>;

    // Per-query traversal work, accumulated locally during the search and
    // flushed to dre::obs once per query. Every field is a pure function of
    // (tree, query), so the totals are identical for any thread count.
    struct QueryStats {
        std::uint64_t leaf_scans = 0;    // leaf nodes visited
        std::uint64_t leaf_points = 0;   // points distance-tested in leaves
        std::uint64_t nodes_pruned = 0;  // far subtrees skipped by the bound
    };

    void standardize_into(std::span<const double> features,
                          std::vector<double>& out) const;
    void build_tree();
    // Fill `heap` with the k smallest (distance^2, index) pairs, sorted
    // ascending on return.
    void nearest_brute(std::span<const double> query, std::size_t k,
                       std::vector<Neighbor>& heap) const;
    void nearest_kdtree(std::span<const double> query, std::size_t k,
                        std::vector<Neighbor>& heap,
                        std::vector<double>& offsets,
                        QueryStats& stats) const;
    // `cell_d2` is a lower bound on the squared distance from the query to
    // this node's cell, maintained incrementally (Arya–Mount): `offsets[a]`
    // holds the per-axis offset already contributing to `cell_d2`.
    void search_node(std::uint32_t node, std::span<const double> query,
                     std::size_t k, std::vector<Neighbor>& heap,
                     std::vector<double>& offsets, double cell_d2,
                     QueryStats& stats) const;
    double reduce_neighbors(const std::vector<Neighbor>& neighbors) const;

    std::size_t k_;
    bool fitted_ = false;
    Algorithm algorithm_ = Algorithm::kAuto;
    std::size_t dims_ = 0;
    std::vector<double> feature_mean_;
    std::vector<double> feature_scale_;

    // Fill `heap` with candidates from slots [begin, end): dispatched
    // 8-wide blocks through dre::simd (tree splits are 8-aligned and the
    // final block is NaN-padded, so every slot is covered). Exactly
    // equivalent to the per-point scan.
    void scan_slots(std::uint32_t begin, std::uint32_t end,
                    std::span<const double> query, std::size_t k,
                    std::vector<Neighbor>& heap) const;

    // Standardized training points, row-major, reordered so each tree
    // node's points are contiguous (cache-friendly leaf scans).
    std::vector<double> points_;
    // The same points again in 8-wide dimension-major blocks for the SIMD
    // leaf scan: block b covers slots [8b, 8b+8) and stores coordinate d of
    // its lane-th point at blocks_[(b * dims + d) * 8 + lane]. The final
    // block's lanes past the last point are NaN-padded (never candidates).
    std::vector<double> blocks_;
    // First slot NOT covered by blocks_ (= 8 * number of blocks, padding
    // included), precomputed so the leaf scan never divides by dims_.
    std::uint32_t blocked_slots_ = 0;
    // perm_[slot] = original training index of the point stored at `slot`.
    std::vector<std::uint32_t> perm_;
    // True when perm_ is the identity (single-leaf trees): slot order then
    // equals original-index order, which lets scan_slots drop exact
    // distance ties in-kernel (they can never win the index tie-break).
    bool perm_identity_ = false;
    std::vector<double> targets_; // original order

    // KD-tree nodes in structure-of-arrays layout (index 0 = root; kNoChild
    // marks an absent child, axis < 0 marks a leaf spanning
    // [node_begin_, node_end_) slots of points_).
    static constexpr std::uint32_t kNoChild = 0xffffffffu;
    std::vector<std::int32_t> node_axis_;
    std::vector<double> node_split_;
    std::vector<std::uint32_t> node_left_;
    std::vector<std::uint32_t> node_right_;
    std::vector<std::uint32_t> node_begin_;
    std::vector<std::uint32_t> node_end_;
};

} // namespace dre::stats

#endif // DRE_STATS_KNN_H
