#include "stats/knn.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/parallel.h"
#include "obs/obs.h"
#include "simd/simd.h"
#include "stats/summary.h"

namespace dre::stats {
namespace {

// Leaves below this size are scanned linearly; splitting further would cost
// more in traversal than it saves in distance computations. Sized at
// sixteen 8-wide SIMD blocks: vectorized leaf scans made distance tests
// cheap enough that bigger leaves (less traversal) now win — measured on
// both the 50k-point knn bench and the small per-decision trees in the
// q̂ fill.
constexpr std::size_t kLeafSize = 128;

// Slots per kernel call in scan_slots' bulk loop. Bounds the stack-held
// candidate buffers and re-tightens `worst` between chunks, whatever the
// scanned range's length.
constexpr std::uint32_t kScanChunkSlots = 128;

// Training sets below this size answer queries by scan even under kAuto —
// the tree's traversal overhead only pays off beyond it. Pure performance
// choice: both paths return bit-identical answers.
constexpr std::size_t kAutoBruteThreshold = 128;

// Under kAuto, training sets up to this size skip the KD-tree and answer
// queries with one blocked kernel scan over all points (scan_slots over the
// whole array). In moderate dimension the tree prunes little on small point
// sets — the query visits most leaves anyway — while the linear scan keeps
// all distance work inside the dispatched kernel, whose strided
// partial-distance abort does the pruning instead. Bit-identical to the
// tree path by the same argument as any scan: aborts and the `worst`
// threshold only skip points that could never enter the heap.
constexpr std::size_t kAutoScanThreshold = 1024;

// Reusable per-thread query state: standardized query, bounded top-k list
// (named `heap` historically; offer() now keeps it sorted ascending).
// Thread-local so concurrent predict_batch tasks never share buffers and no
// query allocates once the vectors have grown to steady state.
struct QueryScratch {
    std::vector<double> query;
    std::vector<std::pair<double, std::uint32_t>> heap;
    std::vector<double> offsets; // per-axis cell offsets (tree search only)
};

QueryScratch& scratch() {
    thread_local QueryScratch tls_scratch;
    return tls_scratch;
}

// Offer (d2, index) to `kept`, a bounded top-k list held sorted ascending
// on the lexicographic (distance, index) order — kept.back() is the worst
// retained pair. For the small k typical of k-NN regression, insertion
// into a sorted array beats a binary heap: an accept is a couple of
// compares plus a short element shift instead of pop_heap + push_heap,
// and the list needs no final sort before target accumulation.
inline void offer(std::vector<std::pair<double, std::uint32_t>>& kept,
                  std::size_t k, double d2, std::uint32_t index) {
    const std::pair<double, std::uint32_t> candidate(d2, index);
    if (kept.size() == k) {
        if (!(candidate < kept.back())) return;
    } else {
        kept.emplace_back();
    }
    // Shift-insert from the tail; when the list was full, the old worst at
    // the back is overwritten by the first shift (or by the candidate).
    std::size_t i = kept.size() - 1;
    for (; i > 0 && candidate < kept[i - 1]; --i) kept[i] = kept[i - 1];
    kept[i] = candidate;
}

} // namespace

KnnRegressor::KnnRegressor(std::size_t k) : k_(k) {
    if (k == 0) throw std::invalid_argument("KnnRegressor: k must be > 0");
}

void KnnRegressor::fit(const std::vector<std::vector<double>>& rows,
                       std::span<const double> targets) {
    if (rows.empty()) throw std::invalid_argument("KnnRegressor::fit: no samples");
    if (rows.size() != targets.size())
        throw std::invalid_argument("KnnRegressor::fit: size mismatch");
    dims_ = rows.front().size();
    feature_mean_.assign(dims_, 0.0);
    feature_scale_.assign(dims_, 1.0);

    std::vector<Accumulator> accs(dims_);
    for (const auto& row : rows) {
        if (row.size() != dims_)
            throw std::invalid_argument("KnnRegressor::fit: ragged feature rows");
        for (std::size_t d = 0; d < dims_; ++d) accs[d].add(row[d]);
    }
    for (std::size_t d = 0; d < dims_; ++d) {
        feature_mean_[d] = accs[d].mean();
        const double sd = accs[d].stddev();
        feature_scale_[d] = sd > 1e-12 ? sd : 1.0;
    }

    const std::size_t n = rows.size();
    points_.resize(n * dims_);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t d = 0; d < dims_; ++d)
            points_[i * dims_ + d] =
                (rows[i][d] - feature_mean_[d]) / feature_scale_[d];
    perm_.resize(n);
    for (std::size_t i = 0; i < n; ++i) perm_[i] = static_cast<std::uint32_t>(i);
    targets_.assign(targets.begin(), targets.end());
    build_tree();
    fitted_ = true;
}

void KnnRegressor::build_tree() {
    node_axis_.clear();
    node_split_.clear();
    node_left_.clear();
    node_right_.clear();
    node_begin_.clear();
    node_end_.clear();

    const std::size_t n = perm_.size();
    // Small point sets stay one leaf: queries scan them linearly anyway
    // (kAutoScanThreshold), so splitting would only shuffle perm_ — and an
    // identity perm_ lets scan_slots drop exact-distance ties in-kernel
    // (see the strict-threshold nudge there). Pure tree-shape choice:
    // results are a function of (point set, query) alone.
    const bool single_leaf = n <= kAutoScanThreshold;
    perm_identity_ = single_leaf;
    // Standardized coordinates in original-index order; points_ is
    // re-materialized in tree order afterwards for contiguous leaf scans.
    const std::vector<double> raw = points_;

    // Recursive median split on the widest-spread axis; ties in the split
    // coordinate are ordered by original index so the partition (and hence
    // the whole tree) is deterministic.
    const auto build = [&](auto&& self, std::uint32_t begin,
                           std::uint32_t end) -> std::uint32_t {
        const auto id = static_cast<std::uint32_t>(node_axis_.size());
        node_axis_.push_back(-1);
        node_split_.push_back(0.0);
        node_left_.push_back(kNoChild);
        node_right_.push_back(kNoChild);
        node_begin_.push_back(begin);
        node_end_.push_back(end);

        if (single_leaf || end - begin <= kLeafSize || dims_ == 0) return id;

        std::size_t axis = 0;
        double best_extent = -1.0;
        for (std::size_t d = 0; d < dims_; ++d) {
            double lo = raw[perm_[begin] * dims_ + d], hi = lo;
            for (std::uint32_t i = begin + 1; i < end; ++i) {
                const double x = raw[perm_[i] * dims_ + d];
                lo = std::min(lo, x);
                hi = std::max(hi, x);
            }
            if (hi - lo > best_extent) {
                best_extent = hi - lo;
                axis = d;
            }
        }
        if (best_extent <= 0.0) return id; // all points identical: leaf

        // Median split rounded DOWN to a multiple of 8 so every node's
        // begin stays 8-aligned (root starts at 0) and leaf ranges open on
        // SIMD block boundaries. Rounding moves at most 7 points across
        // the split — a pure tree-shape choice: the k nearest neighbours
        // are a function of (point set, query) alone, so results are
        // unchanged. size > kLeafSize >= 16 guarantees mid > begin.
        const std::uint32_t mid = begin + (((end - begin) / 2) & ~7u);
        std::nth_element(perm_.begin() + begin, perm_.begin() + mid,
                         perm_.begin() + end,
                         [&](std::uint32_t a, std::uint32_t b) {
                             const double xa = raw[a * dims_ + axis];
                             const double xb = raw[b * dims_ + axis];
                             return xa != xb ? xa < xb : a < b;
                         });
        node_axis_[id] = static_cast<std::int32_t>(axis);
        node_split_[id] = raw[perm_[mid] * dims_ + axis];
        const std::uint32_t left = self(self, begin, mid);
        node_left_[id] = left;
        const std::uint32_t right = self(self, mid, end);
        node_right_[id] = right;
        return id;
    };
    build(build, 0, static_cast<std::uint32_t>(n));

    for (std::size_t slot = 0; slot < n; ++slot)
        for (std::size_t d = 0; d < dims_; ++d)
            points_[slot * dims_ + d] = raw[perm_[slot] * dims_ + d];

    // Dimension-major 8-wide blocks over the tree-ordered points for the
    // SIMD leaf scan (layout documented in knn.h). The last block is padded
    // with NaN coordinates: a NaN lane accumulates a NaN distance, and the
    // kernel's ordered compares never report a NaN lane as a candidate (nor
    // as "exceeds worst", so padding never triggers an abort) — padded
    // lanes are simply invisible, and every real slot goes through the
    // kernel with no scalar tail.
    const std::size_t num_blocks = (n + 7) / 8;
    blocks_.assign(num_blocks * dims_ * 8,
                   std::numeric_limits<double>::quiet_NaN());
    blocked_slots_ = static_cast<std::uint32_t>(num_blocks * 8);
    for (std::size_t slot = 0; slot < n; ++slot)
        for (std::size_t d = 0; d < dims_; ++d)
            blocks_[((slot / 8) * dims_ + d) * 8 + (slot % 8)] =
                points_[slot * dims_ + d];
}

void KnnRegressor::standardize_into(std::span<const double> features,
                                    std::vector<double>& out) const {
    out.resize(dims_);
    for (std::size_t d = 0; d < dims_; ++d)
        out[d] = (features[d] - feature_mean_[d]) / feature_scale_[d];
}

void KnnRegressor::nearest_brute(std::span<const double> query, std::size_t k,
                                 std::vector<Neighbor>& heap) const {
    heap.clear();
    const std::size_t n = perm_.size();
    for (std::size_t slot = 0; slot < n; ++slot) {
        double d2 = 0.0;
        const double* point = points_.data() + slot * dims_;
        for (std::size_t d = 0; d < dims_; ++d) {
            const double diff = point[d] - query[d];
            d2 += diff * diff;
        }
        offer(heap, k, d2, perm_[slot]);
    }
    // offer() keeps the list sorted ascending — nothing left to order.
}

void KnnRegressor::scan_slots(std::uint32_t begin, std::uint32_t end,
                              std::span<const double> query, std::size_t k,
                              std::vector<Neighbor>& heap) const {
    const simd::Ops& ops = simd::ops();
    std::uint32_t slot = begin;
    // Tree splits keep slot ranges 8-aligned (a ragged `end` only ever
    // closes the whole array, whose final block is NaN-padded — padded
    // lanes can never become candidates), so every point is scanned
    // through the dispatched kernel. The kernel runs the strided
    // partial-distance exit against the worst kept distance at scan entry
    // — no abort can drop a would-be candidate, so this is exactly
    // equivalent to the per-point scan. It returns the candidates
    // (d² <= worst) in slot order; only those reach offer(), which
    // re-checks the lexicographic (distance, index) tie-break against the
    // heap as it tightens — a point with d² > worst at scan entry could
    // never enter the heap, so skipping it is exact.
    const std::uint32_t blocked_stop =
        std::min((end + 7) & ~std::uint32_t{7}, blocked_slots_);
    double cand_d2[kScanChunkSlots];
    std::uint32_t cand_idx[kScanChunkSlots];
    // Cold-heap warm-start: an unfilled heap accepts every point, so a
    // bulk scan against worst=+inf would return the whole chunk as
    // candidates and flood offer(). Feed single blocks until the heap
    // holds k entries; every scan after that runs against a real worst.
    while (slot < blocked_stop && heap.size() < k) {
        const double worst = heap.size() < k
                                 ? std::numeric_limits<double>::infinity()
                                 : heap.back().first;
        const std::size_t found =
            ops.l2sq_scan(blocks_.data() + (slot / 8) * dims_ * 8, 1, dims_,
                          query.data(), worst, cand_d2, cand_idx);
        for (std::size_t i = 0; i < found; ++i)
            offer(heap, k, cand_d2[i], perm_[slot + cand_idx[i]]);
        slot += 8;
    }
    // Bulk scan in bounded chunks: `worst` re-tightens between chunks and
    // the candidate buffers stay stack-sized however long the range is.
    // Chunk sizes ramp geometrically — right after the warm-start the
    // threshold is still loose (it only reflects the first k points), so
    // small early chunks tighten it cheaply before the big ones run,
    // keeping the candidate flood reaching offer() short.
    std::uint32_t ramp_slots = 16;
    while (slot < blocked_stop) {
        const std::uint32_t chunk = std::min(blocked_stop - slot, ramp_slots);
        ramp_slots = std::min(ramp_slots * 2, kScanChunkSlots);
        double worst = heap.size() < k
                           ? std::numeric_limits<double>::infinity()
                           : heap.back().first;
        // Identity-permutation scans visit points in increasing original-
        // index order, so every not-yet-scanned point that exactly TIES the
        // current worst distance loses the (distance, index) tie-break to
        // whatever already sits in the full heap. Nudging the kernel
        // threshold one ulp down drops those tied candidates in-kernel —
        // one-hot feature spaces produce large exact-tie classes that would
        // otherwise be rejected one offer() at a time. Exact: only points
        // that could never enter the heap are dropped.
        if (perm_identity_ && heap.size() == k)
            worst = std::nextafter(
                worst, -std::numeric_limits<double>::infinity());
        const std::size_t found = ops.l2sq_scan(
            blocks_.data() + (slot / 8) * dims_ * 8, chunk / 8, dims_,
            query.data(), worst, cand_d2, cand_idx);
        for (std::size_t i = 0; i < found; ++i)
            offer(heap, k, cand_d2[i], perm_[slot + cand_idx[i]]);
        slot += chunk;
    }
}

void KnnRegressor::search_node(std::uint32_t node, std::span<const double> query,
                               std::size_t k, std::vector<Neighbor>& heap,
                               std::vector<double>& offsets, double cell_d2,
                               QueryStats& stats) const {
    const std::int32_t axis = node_axis_[node];
    if (axis < 0) {
        ++stats.leaf_scans;
        stats.leaf_points += node_end_[node] - node_begin_[node];
        scan_slots(node_begin_[node], node_end_[node], query, k, heap);
        return;
    }
    const std::size_t a = static_cast<std::size_t>(axis);
    const double diff = query[a] - node_split_[node];
    const std::uint32_t near = diff < 0.0 ? node_left_[node] : node_right_[node];
    const std::uint32_t far = diff < 0.0 ? node_right_[node] : node_left_[node];
    // The near child shares this node's cell bound.
    search_node(near, query, k, heap, offsets, cell_d2, stats);
    // Far-side lower bound (Arya–Mount incremental distance): replace this
    // axis's contribution to the cell distance with the offset to the
    // splitting hyperplane. Every far-side point is at least `far_d2` away.
    // On exact ties (far_d2 == worst d2) the far side may hold an
    // equal-distance point with a smaller index, which outranks the current
    // worst under the (distance, index) order — so the bound must be
    // non-strict for exact brute-force equivalence.
    const double old_offset = offsets[a];
    const double far_d2 = cell_d2 - old_offset * old_offset + diff * diff;
    if (heap.size() < k || far_d2 <= heap.back().first) {
        offsets[a] = diff;
        search_node(far, query, k, heap, offsets, far_d2, stats);
        offsets[a] = old_offset;
    } else {
        ++stats.nodes_pruned;
    }
}

void KnnRegressor::nearest_kdtree(std::span<const double> query, std::size_t k,
                                  std::vector<Neighbor>& heap,
                                  std::vector<double>& offsets,
                                  QueryStats& stats) const {
    heap.clear();
    offsets.assign(dims_, 0.0);
    search_node(0, query, k, heap, offsets, 0.0, stats);
    // offer() keeps the list sorted ascending — nothing left to order.
}

double KnnRegressor::reduce_neighbors(const std::vector<Neighbor>& neighbors) const {
    // Accumulate in ascending (distance^2, index) order — the canonical
    // order shared by both query paths, so results never depend on which
    // algorithm answered.
    double sum = 0.0;
    for (const Neighbor& nb : neighbors) sum += targets_[nb.second];
    return sum / static_cast<double>(neighbors.size());
}

std::vector<double> KnnRegressor::predict_batch(
    const std::vector<std::vector<double>>& queries) const {
    if (!fitted_) throw std::logic_error("KnnRegressor::predict_batch before fit");
    std::vector<double> out(queries.size());
    // Queries are individually cheap post-KD-tree; a modest grain keeps
    // dispatch overhead low while still load-balancing across threads.
    par::parallel_for_chunked(
        queries.size(),
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) out[i] = predict(queries[i]);
        },
        /*min_grain=*/64);
    return out;
}

double KnnRegressor::predict(std::span<const double> features) const {
    if (!fitted_) throw std::logic_error("KnnRegressor::predict before fit");
    if (features.size() != dims_)
        throw std::invalid_argument("KnnRegressor::predict: feature size mismatch");
    QueryScratch& s = scratch();
    standardize_into(features, s.query);

    const std::size_t k = std::min(k_, targets_.size());
    const bool brute = algorithm_ == Algorithm::kBruteForce ||
                       (algorithm_ == Algorithm::kAuto &&
                        targets_.size() < kAutoBruteThreshold) ||
                       dims_ == 0;
    QueryStats stats;
    if (brute) {
        nearest_brute(s.query, k, s.heap);
    } else if (algorithm_ == Algorithm::kAuto &&
               targets_.size() <= kAutoScanThreshold) {
        // Small tree: one blocked scan of the whole point set (counted as
        // a single full-size leaf scan in the traversal stats).
        s.heap.clear();
        scan_slots(0, static_cast<std::uint32_t>(perm_.size()), s.query, k,
                   s.heap);
        stats.leaf_scans = 1;
        stats.leaf_points = perm_.size();
    } else {
        nearest_kdtree(s.query, k, s.heap, s.offsets, stats);
    }
    // One flush per query, not per node/point: the per-query sums are pure
    // functions of (tree, query), so the totals match for any thread count
    // — they are safe to include in the determinism fingerprint.
    DRE_COUNTER_INC("knn.queries");
    if (brute) {
        DRE_COUNTER_INC("knn.brute_force_queries");
    } else {
        DRE_COUNTER_ADD("knn.leaf_scans", stats.leaf_scans);
        DRE_COUNTER_ADD("knn.leaf_points_scanned", stats.leaf_points);
        DRE_COUNTER_ADD("knn.nodes_pruned", stats.nodes_pruned);
    }
    return reduce_neighbors(s.heap);
}

} // namespace dre::stats
