// Online closed-loop tuner (layer 3): propose → collect a fresh trace wave
// → DR-score → promote behind a CI gate.
//
// Each wave w:
//   1. collect a wave of logged tuples under the current *logging policy*
//      (uniform until the first promotion; afterwards the epsilon-smoothed
//      incumbent — the §4.1 redeploy shape, so the loop keeps generating
//      evaluable traces about itself);
//   2. the RecencyWeightedBandit proposes a candidate;
//   3. the wave is index-split in half: models fit on the first half, the
//      candidate AND the incumbent are DR-scored on the second half against
//      one shared PredictionMatrix;
//   4. core::certify_improvement gives the paired per-tuple DR difference
//      a chunk-keyed bootstrap CI; the candidate is promoted to incumbent
//      only when the CI's lower bound clears zero;
//   5. one canonical journal line records the wave; the controller absorbs
//      the candidate's DR score.
//
// Determinism contract: the whole loop is a pure function of
// (source, candidates, options, seed). Every random stream is a pure
// Rng::split key — base.split(wave).split(substream) — so no state leaks
// between waves, results are bit-identical at any DRE_THREADS, and a
// checkpoint/resume run replays exactly: the checkpoint stores only plain
// data (cursor, controller state, journal, promotion history), and the
// incumbent policy object is rebuilt on resume by re-collecting the waves
// it was promoted on (each itself a pure function of the seed and the
// promotions before it).
#ifndef DRE_TUNE_TUNER_H
#define DRE_TUNE_TUNER_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/environment.h"
#include "core/streaming.h"
#include "stats/rng.h"
#include "trace/trace.h"
#include "tune/candidate.h"
#include "tune/controller.h"
#include "tune/offline.h"

namespace dre::tune {

// Produces wave `wave_index`'s logged tuples. `rng` is a pure per-wave
// stream; implementations must not keep hidden mutable state that affects
// tuples (the resume replay depends on wave() being a pure function of
// (wave_index, logging policy, rng)).
class WaveSource {
public:
    virtual ~WaveSource() = default;
    virtual Trace wave(std::uint64_t wave_index,
                       const core::Policy& logging_policy,
                       stats::Rng& rng) const = 0;
    virtual std::size_t num_decisions() const = 0;
};

// Live environment: collect_trace under the logging policy (fresh traffic —
// the cdn/video/wise worlds).
class EnvWaveSource final : public WaveSource {
public:
    // `env` is non-owning and must outlive the source.
    EnvWaveSource(const core::Environment& env, std::size_t wave_size);

    Trace wave(std::uint64_t wave_index, const core::Policy& logging_policy,
               stats::Rng& rng) const override;
    std::size_t num_decisions() const override { return env_->num_decisions(); }

private:
    const core::Environment* env_;
    std::size_t wave_size_;
};

// Historical replay over a TupleSource (a sharded .drt store): wave w reads
// rows [w*wave_size mod n, ...). The logging policy is ignored — the
// propensities are whatever the store logged — so promotions are honest
// off-policy decisions about historical traffic.
class StoreWaveSource final : public WaveSource {
public:
    // `source` is non-owning and must outlive this object.
    StoreWaveSource(const core::TupleSource& source, std::size_t wave_size);

    Trace wave(std::uint64_t wave_index, const core::Policy& logging_policy,
               stats::Rng& rng) const override;
    std::size_t num_decisions() const override {
        return source_->num_decisions();
    }

private:
    const core::TupleSource* source_;
    std::size_t wave_size_;
};

struct TuneOptions {
    std::uint64_t waves = 16;
    RecencyWeightedBandit::Options controller;
    // Referee model for the per-wave DR scoring (fit on each wave's first
    // half).
    core::RewardModelKind eval_model = core::RewardModelKind::kTabular;
    int bootstrap_replicates = 200; // CI gate replicates (must be >= 2)
    double ci_level = 0.95;
    // Uniform smoothing applied to the incumbent when it becomes the
    // logging policy — keeps every post-promotion wave fully supported.
    double redeploy_epsilon = 0.1;
    // Non-empty: write resumable tuner state after every wave (the
    // core/checkpoint.h container, written atomically).
    std::string checkpoint_path;
    // Resume from checkpoint_path if it exists (missing file = fresh run;
    // present-but-mismatched = std::runtime_error).
    bool resume = false;
    // Checked once per wave after the checkpoint flush; when set, the run
    // returns early with interrupted=true and a complete on-disk state.
    const std::atomic<bool>* interrupt = nullptr;
};

struct PromotionRecord {
    std::uint64_t wave = 0;
    std::size_t candidate = 0;
};

struct TuneResult {
    std::uint64_t waves_run = 0;
    std::uint64_t evaluations = 0; // candidate scorings (== waves_run)
    std::uint64_t promotions = 0;
    bool has_incumbent = false;    // false until the first promotion
    std::size_t incumbent = 0;     // candidate index (valid iff has_incumbent)
    std::string incumbent_spec;    // "uniform" before the first promotion
    std::vector<std::string> journal;      // one line per wave, no newline
    std::vector<double> wave_rewards;      // realized mean logged reward
    std::vector<PromotionRecord> promotion_history;
    std::vector<double> controller_scores;
    std::vector<std::uint64_t> controller_counts;
    bool interrupted = false;

    // Canonical journal rendering: every line + '\n'. Byte-identical across
    // DRE_THREADS and across checkpoint/resume (test_tune and the tune-smoke
    // CI job diff exactly these bytes).
    std::string journal_text() const;
};

// Run the closed loop. Pure function of its arguments (see the determinism
// contract above). Throws std::invalid_argument for an empty candidate
// list/degenerate options and std::runtime_error for checkpoint damage.
TuneResult run_tune(const WaveSource& source,
                    const std::vector<PolicyCandidate>& candidates,
                    const TuneOptions& options, std::uint64_t seed);

} // namespace dre::tune

#endif // DRE_TUNE_TUNER_H
