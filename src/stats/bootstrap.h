// Chunk-keyed percentile bootstrap confidence intervals for a sample mean.
#ifndef DRE_STATS_BOOTSTRAP_H
#define DRE_STATS_BOOTSTRAP_H

#include <cstdint>
#include <span>
#include <vector>

#include "stats/rng.h"

namespace dre::stats {

struct ConfidenceInterval {
    double point = 0.0; // statistic on the full sample
    double lower = 0.0;
    double upper = 0.0;
    double level = 0.95;

    double width() const noexcept { return upper - lower; }
    bool contains(double value) const noexcept {
        return value >= lower && value <= upper;
    }
};

// Bootstrap replicate counts accepted from outside the program (dre_eval
// --ci, the wire's ci_replicates): 0 for no interval, else
// 2..kMaxBootstrapReplicates. The bound sits above every count the repo
// uses; it exists because replicate state is allocated up front (8 B per
// replicate per chunk in flight, 32 B more for its generator), so an
// unchecked count near 2^31 would ask for gigabytes from one request.
inline constexpr int kMaxBootstrapReplicates = 100000;

constexpr bool valid_replicate_count(long long count) noexcept {
    return count == 0 || (count >= 2 && count <= kMaxBootstrapReplicates);
}

// ---------------------------------------------------------------------------
// Chunk-keyed streaming bootstrap for the mean.
//
// A whole-sample bootstrap draws n indices over all n values per
// replicate, which requires random access to the whole sample — a
// non-starter for out-of-core evaluation. This one stratifies each
// replicate by fixed-size chunk (par::kReduceChunk, the deterministic
// reduction geometry): replicate b resamples chunk c within itself using
// the pure child stream base.split(c).split(b), producing one partial sum
// per (chunk, replicate). Partials are folded in chunk order, and the
// replicate mean is (fold of partial sums) / n.
//
// A chunk's partials come from one simd::Ops::resample_sum8 call over the
// B child states: each replicate draws its m indices exactly as
// Rng::uniform_index(m) would and sums the drawn values in the canonical
// 8-lane order, so every dispatch level (AVX2 runs 8 replicates per pass)
// produces the same bits as a per-draw uniform_index loop.
//
// Consequences:
//  * O(replicates) streaming state — chunks can be visited one at a time
//    and discarded;
//  * results depend only on (base rng, chunk geometry, values), never on
//    thread count, shard layout, or visit interleaving (merge order is
//    enforced by the caller feeding chunks in order);
//  * the in-memory and streaming paths share this exact code, so their
//    CIs are bit-identical by construction.
//
// Statistically this is a stratified bootstrap (resampling within blocks
// of ≤ 4096 consecutive tuples): each replicate still draws n tuples with
// replacement, with the count per block fixed at the block size.
// ---------------------------------------------------------------------------
class ChunkedMeanBootstrap {
public:
    // `base` should be a fresh split of the caller's generator. Throws
    // std::invalid_argument for replicates < 2 or level outside (0, 1).
    ChunkedMeanBootstrap(Rng base, int replicates, double level);

    int replicates() const noexcept { return replicates_; }

    // Per-replicate resample sums of `values` (the chunk's per-tuple
    // contributions). Pure function of (base, chunk_id, values) — safe to
    // call concurrently for different chunks. Throws std::invalid_argument
    // for more than par::kReduceChunk values.
    std::vector<double> chunk_partials(std::uint64_t chunk_id,
                                       std::span<const double> values) const;

    // Fold one chunk's partials into the running replicate sums. Chunks
    // MUST be merged in chunk-id order (0, 1, 2, …).
    void merge(std::span<const double> partials);

    // Percentile interval over the replicate means; `point` is the caller's
    // full-sample statistic (reported verbatim, not recomputed).
    ConfidenceInterval finalize(std::uint64_t total_n, double point) const;

    // Checkpoint/resume support. The base generator never advances after
    // construction (chunk_partials derives pure child streams), so a
    // resumed bootstrap is reconstructed from the same seed and the running
    // replicate sums are restored verbatim via restore_sums(). base_rng()
    // lets the checkpoint record the base state and verify the resumed run
    // was seeded identically.
    const Rng& base_rng() const noexcept { return base_; }
    std::span<const double> replicate_sums() const noexcept { return sums_; }
    void restore_sums(std::span<const double> sums);

private:
    Rng base_;
    int replicates_;
    double level_;
    std::vector<double> sums_; // per-replicate running resample sums
};

// In-memory convenience wrapper: chunk the sample, compute partials in
// parallel (dre::par), merge in order, finalize. Advances `rng` once (one
// split for the base), so a streaming run that splits its rng identically
// produces the identical interval. Every bootstrap interval in the repo
// comes from here or from the class above.
ConfidenceInterval chunked_bootstrap_mean_ci(std::span<const double> sample,
                                             double point, Rng& rng,
                                             int replicates = 1000,
                                             double level = 0.95);

} // namespace dre::stats

#endif // DRE_STATS_BOOTSTRAP_H
