#include "tune/tuner.h"

#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "core/checkpoint.h"
#include "core/parallel.h"
#include "core/policy_learning.h"
#include "core/qhat.h"
#include "obs/obs.h"

namespace dre::tune {

namespace {

// Pure per-wave substreams: base.split(wave).split(substream).
constexpr std::uint64_t kCollectStream = 0;
constexpr std::uint64_t kProposeStream = 1;
constexpr std::uint64_t kGateStream = 2;

// DRETUNE1 (core/checkpoint.h). The payload is plain data only — the
// incumbent policy object is deliberately NOT serialized; resume rebuilds it
// by replaying the promotion waves (each a pure function of the seed).
constexpr std::string_view kCheckpointMagic = "DRETUNE1";

// Everything the wave loop carries across waves, checkpointable as a unit.
struct TuneState {
    std::uint64_t next_wave = 0;
    std::uint64_t evaluations = 0;
    std::uint64_t promotions = 0;
    bool has_incumbent = false;
    std::size_t incumbent = 0;
    std::vector<std::string> journal;
    std::vector<double> wave_rewards;
    std::vector<PromotionRecord> promotion_history;
    std::vector<double> controller_scores;
    std::vector<std::uint64_t> controller_counts;
};

// The checkpoint payload, listed once for both directions: `io` is a
// core::CheckpointWriter or a core::CheckpointReader.
template <typename Io>
void visit_state(Io& io, TuneState& s) {
    io(s.next_wave);
    io(s.evaluations);
    io(s.promotions);
    io(s.has_incumbent);
    io(s.incumbent);
    io.list(s.journal);
    io.list(s.wave_rewards);
    io.list(s.promotion_history, [&](PromotionRecord& rec) {
        io(rec.wave);
        io(rec.candidate);
    });
    io.list(s.controller_scores);
    io.list(s.controller_counts);
}

std::uint64_t config_hash(std::uint64_t seed,
                          const std::vector<PolicyCandidate>& candidates,
                          const TuneOptions& options, std::size_t decisions) {
    core::CheckpointWriter w;
    w(seed);
    w(options.waves);
    w(decisions);
    w(par::kReduceChunk);
    w(candidates.size());
    for (const PolicyCandidate& c : candidates) w(c.spec());
    w(static_cast<std::uint64_t>(options.eval_model));
    w(options.bootstrap_replicates);
    w(options.ci_level);
    w(options.controller.epsilon);
    w(options.controller.alpha);
    w(options.redeploy_epsilon);
    return w.digest();
}

void write_checkpoint(const std::string& path, std::uint64_t hash,
                      TuneState& state) {
    core::CheckpointWriter w(kCheckpointMagic, hash);
    visit_state(w, state);
    w.save(path);
    DRE_COUNTER_INC("tune.checkpoints_written");
}

// Returns false (state untouched) when the file does not exist; throws on
// malformed or mismatched content, including any index the resumed run
// would follow out of range.
bool load_checkpoint(const std::string& path, std::uint64_t hash,
                     std::uint64_t waves, std::size_t candidates,
                     TuneState& state) {
    std::optional<core::CheckpointReader> r = core::CheckpointReader::open(
        path, kCheckpointMagic, hash, "tune checkpoint");
    if (!r) return false;
    visit_state(*r, state);
    r->finish();
    if (state.next_wave > waves)
        r->fail("next wave " + std::to_string(state.next_wave) +
                " past the run's " + std::to_string(waves) + " waves");
    const auto check_candidate = [&](std::size_t c) {
        if (c >= candidates)
            r->fail("candidate index " + std::to_string(c) +
                    " out of range (" + std::to_string(candidates) +
                    " candidates)");
    };
    check_candidate(state.incumbent);
    for (const PromotionRecord& rec : state.promotion_history) {
        check_candidate(rec.candidate);
        if (rec.wave >= state.next_wave)
            r->fail("promotion wave " + std::to_string(rec.wave) +
                    " not before next wave " +
                    std::to_string(state.next_wave));
    }
    if (state.controller_scores.size() != candidates ||
        state.controller_counts.size() != candidates)
        r->fail("controller state does not match " +
                std::to_string(candidates) + " candidates");
    DRE_COUNTER_INC("tune.resumes");
    return true;
}

// First half fits, second half scores — an index split, so the geometry is
// independent of any RNG and identical on a resume replay.
std::pair<Trace, Trace> index_split(const Trace& trace) {
    const std::size_t n = trace.size();
    const std::size_t cut = n / 2;
    Trace fit, eval;
    fit.reserve(cut);
    eval.reserve(n - cut);
    for (std::size_t i = 0; i < cut; ++i) fit.add(trace[i]);
    for (std::size_t i = cut; i < n; ++i) eval.add(trace[i]);
    return {std::move(fit), std::move(eval)};
}

double mean_reward(const Trace& trace) {
    double sum = 0.0;
    for (const LoggedTuple& t : trace) sum += t.reward;
    return sum / static_cast<double>(trace.size());
}

std::shared_ptr<const core::Policy> make_logging_policy(
    const std::shared_ptr<const core::Policy>& incumbent, bool has_incumbent,
    std::size_t decisions, double redeploy_epsilon) {
    if (!has_incumbent)
        return std::make_shared<core::UniformRandomPolicy>(decisions);
    if (redeploy_epsilon <= 0.0) return incumbent;
    return std::make_shared<core::EpsilonGreedyPolicy>(incumbent,
                                                       redeploy_epsilon);
}

} // namespace

EnvWaveSource::EnvWaveSource(const core::Environment& env,
                             std::size_t wave_size)
    : env_(&env), wave_size_(wave_size) {
    if (wave_size_ < 2)
        throw std::invalid_argument("EnvWaveSource needs wave_size >= 2");
}

Trace EnvWaveSource::wave(std::uint64_t wave_index,
                          const core::Policy& logging_policy,
                          stats::Rng& rng) const {
    (void)wave_index; // freshness comes from the per-wave rng stream
    return core::collect_trace(*env_, logging_policy, wave_size_, rng);
}

StoreWaveSource::StoreWaveSource(const core::TupleSource& source,
                                 std::size_t wave_size)
    : source_(&source), wave_size_(wave_size) {
    if (wave_size_ < 2)
        throw std::invalid_argument("StoreWaveSource needs wave_size >= 2");
    if (source_->num_tuples() < wave_size_)
        throw std::invalid_argument(
            "StoreWaveSource: store smaller than one wave");
}

Trace StoreWaveSource::wave(std::uint64_t wave_index,
                            const core::Policy& logging_policy,
                            stats::Rng& rng) const {
    (void)logging_policy; // historical replay: propensities come from the log
    (void)rng;
    const std::uint64_t n = source_->num_tuples();
    std::uint64_t begin = (wave_index * wave_size_) % n;
    if (begin + wave_size_ > n) begin = n - wave_size_; // keep waves full
    std::vector<LoggedTuple> tuples;
    source_->read(begin, wave_size_, tuples);
    return Trace(std::move(tuples));
}

std::string TuneResult::journal_text() const {
    std::string out;
    for (const std::string& line : journal) {
        out += line;
        out += '\n';
    }
    return out;
}

TuneResult run_tune(const WaveSource& source,
                    const std::vector<PolicyCandidate>& candidates,
                    const TuneOptions& options, std::uint64_t seed) {
    if (candidates.empty())
        throw std::invalid_argument("run_tune: no candidates");
    if (options.waves == 0)
        throw std::invalid_argument("run_tune: waves must be > 0");
    if (options.bootstrap_replicates < 2)
        throw std::invalid_argument(
            "run_tune: the CI gate needs >= 2 bootstrap replicates");
    if (!(options.redeploy_epsilon >= 0.0 && options.redeploy_epsilon <= 1.0))
        throw std::invalid_argument(
            "run_tune: redeploy_epsilon outside [0,1]");

    const std::size_t decisions = source.num_decisions();
    const stats::Rng base(seed);
    const std::uint64_t hash = config_hash(seed, candidates, options,
                                           decisions);

    RecencyWeightedBandit controller(candidates.size(), options.controller);
    TuneState state;
    std::shared_ptr<const core::Policy> incumbent_policy =
        std::make_shared<core::UniformRandomPolicy>(decisions);

    // Re-materializes the incumbent from one promotion record: re-collect
    // that wave (pure function of the seed and the promotions before it)
    // and fit the promoted candidate on its fit half.
    const auto replay_promotion = [&](const PromotionRecord& rec,
                                      bool replaying_has_incumbent) {
        const std::shared_ptr<const core::Policy> logging =
            make_logging_policy(incumbent_policy, replaying_has_incumbent,
                                decisions, options.redeploy_epsilon);
        stats::Rng collect_rng = base.split(rec.wave).split(kCollectStream);
        const Trace trace = source.wave(rec.wave, *logging, collect_rng);
        incumbent_policy = materialize(candidates[rec.candidate],
                                       index_split(trace).first, decisions);
    };

    if (options.resume && !options.checkpoint_path.empty() &&
        load_checkpoint(options.checkpoint_path, hash, options.waves,
                        candidates.size(), state)) {
        controller.restore(state.controller_scores, state.controller_counts);
        bool has = false;
        for (const PromotionRecord& rec : state.promotion_history) {
            replay_promotion(rec, has);
            has = true;
        }
    }

    bool interrupted = false;
    for (std::uint64_t w = state.next_wave; w < options.waves; ++w) {
        DRE_SPAN("tune.wave");
        DRE_COUNTER_INC("tune.waves");

        const std::shared_ptr<const core::Policy> logging =
            make_logging_policy(incumbent_policy, state.has_incumbent,
                                decisions, options.redeploy_epsilon);
        stats::Rng collect_rng = base.split(w).split(kCollectStream);
        const Trace trace = source.wave(w, *logging, collect_rng);
        if (trace.size() < 4)
            throw std::invalid_argument("run_tune: wave too small to split");
        const double wave_reward = mean_reward(trace);

        stats::Rng propose_rng = base.split(w).split(kProposeStream);
        const std::size_t proposed = controller.propose(propose_rng);
        const PolicyCandidate& candidate = candidates[proposed];

        const auto [fit, eval] = index_split(trace);
        const std::shared_ptr<const core::RewardModel> referee(
            core::fit_reward_model(options.eval_model, decisions, fit));
        const core::PredictionMatrix qhat =
            core::PredictionMatrix::build(*referee, eval);
        const std::shared_ptr<core::Policy> cand_policy =
            materialize(candidate, fit, decisions);

        stats::Rng gate_rng = base.split(w).split(kGateStream);
        const core::ImprovementReport gate = core::certify_improvement(
            eval, *incumbent_policy, *cand_policy, qhat, gate_rng,
            options.bootstrap_replicates, options.ci_level);
        const bool promote = gate.certified;

        controller.record(proposed, gate.candidate_value);
        ++state.evaluations;

        const std::string incumbent_spec =
            state.has_incumbent ? candidates[state.incumbent].spec()
                                : std::string("uniform");
        char line[512];
        std::snprintf(line, sizeof line,
                      "wave %llu propose=%zu spec=%s dr=%.17g incumbent=%s "
                      "lift=%.17g ci=[%.17g, %.17g] decision=%s reward=%.17g",
                      static_cast<unsigned long long>(w), proposed,
                      candidate.spec().c_str(), gate.candidate_value,
                      incumbent_spec.c_str(), gate.estimated_lift,
                      gate.lift_ci.lower, gate.lift_ci.upper,
                      promote ? "promote" : "hold", wave_reward);
        state.journal.emplace_back(line);
        state.wave_rewards.push_back(wave_reward);

        if (promote) {
            state.has_incumbent = true;
            state.incumbent = proposed;
            incumbent_policy = cand_policy;
            state.promotion_history.push_back({w, proposed});
            ++state.promotions;
            DRE_COUNTER_INC("tune.promotions");
        } else {
            DRE_COUNTER_INC("tune.holds");
        }

        state.next_wave = w + 1;
        state.controller_scores.assign(controller.scores().begin(),
                                       controller.scores().end());
        state.controller_counts.assign(controller.counts().begin(),
                                       controller.counts().end());
        if (!options.checkpoint_path.empty())
            write_checkpoint(options.checkpoint_path, hash, state);
        if (options.interrupt != nullptr && w + 1 < options.waves &&
            options.interrupt->load()) {
            interrupted = true;
            break;
        }
    }

    TuneResult result;
    result.waves_run = state.next_wave;
    result.evaluations = state.evaluations;
    result.promotions = state.promotions;
    result.has_incumbent = state.has_incumbent;
    result.incumbent = state.incumbent;
    result.incumbent_spec = state.has_incumbent
                                ? candidates[state.incumbent].spec()
                                : std::string("uniform");
    result.journal = std::move(state.journal);
    result.wave_rewards = std::move(state.wave_rewards);
    result.promotion_history = std::move(state.promotion_history);
    result.controller_scores = std::move(state.controller_scores);
    result.controller_counts = std::move(state.controller_counts);
    result.interrupted = interrupted;
    DRE_GAUGE_SET("tune.promotions_total", result.promotions);
    return result;
}

} // namespace dre::tune
