// dre::tune — candidate space, offline search, controller, and the online
// CI-gated tuner. The load-bearing properties: bit-identity across
// DRE_THREADS and across checkpoint/resume, and the promotion gate only
// opening when the paired DR CI clears zero.
#include "tune/tuner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bandit/agents.h"
#include "bandit/run.h"
#include "core/checkpoint.h"
#include "core/environment.h"
#include "core/parallel.h"
#include "core/policy.h"
#include "stats/rng.h"
#include "tune/candidate.h"
#include "tune/controller.h"
#include "tune/offline.h"

namespace dre {
namespace {

struct ThreadCountGuard {
    ~ThreadCountGuard() { par::set_thread_count(0); }
};

// Three arms with well-separated means; the context is inert, so
// constant:1 is the planted-best policy by a wide margin.
class PlantedBestEnv final : public core::Environment {
public:
    ClientContext sample_context(stats::Rng&) const override {
        return ClientContext({0.0}, {});
    }
    Reward sample_reward(const ClientContext&, Decision d,
                         stats::Rng& rng) const override {
        return kMeans[static_cast<std::size_t>(d)] + 0.1 * rng.normal();
    }
    std::size_t num_decisions() const noexcept override { return 3; }

    static constexpr double kMeans[3] = {0.1, 0.9, 0.4};
};

// Every arm identical: no candidate should ever clear the CI gate.
class EqualArmsEnv final : public core::Environment {
public:
    ClientContext sample_context(stats::Rng&) const override {
        return ClientContext({0.0}, {});
    }
    Reward sample_reward(const ClientContext&, Decision,
                         stats::Rng& rng) const override {
        return 0.5 + 0.2 * rng.normal();
    }
    std::size_t num_decisions() const noexcept override { return 3; }
};

std::vector<tune::PolicyCandidate> constant_candidates(std::size_t arms) {
    tune::CandidateSpace space;
    space.num_decisions = arms;
    space.models.clear();
    space.epsilons.clear();
    space.include_constants = true;
    return tune::enumerate(space);
}

Trace collect_uniform(const core::Environment& env, std::size_t n,
                      std::uint64_t seed) {
    const core::UniformRandomPolicy uniform(env.num_decisions());
    stats::Rng rng(seed);
    return core::collect_trace(env, uniform, n, rng);
}

// Flips the interrupt flag while producing wave `trigger` — the run then
// stops at that wave's boundary with its checkpoint flushed, exactly like a
// SIGINT landing mid-run.
class InterruptingSource final : public tune::WaveSource {
public:
    InterruptingSource(const tune::WaveSource& inner, std::uint64_t trigger,
                       std::atomic<bool>& flag)
        : inner_(&inner), trigger_(trigger), flag_(&flag) {}

    Trace wave(std::uint64_t wave_index, const core::Policy& logging_policy,
               stats::Rng& rng) const override {
        if (wave_index == trigger_) flag_->store(true);
        return inner_->wave(wave_index, logging_policy, rng);
    }
    std::size_t num_decisions() const override {
        return inner_->num_decisions();
    }

private:
    const tune::WaveSource* inner_;
    std::uint64_t trigger_;
    std::atomic<bool>* flag_;
};

std::string temp_path(const char* name) {
    return std::string(::testing::TempDir()) + name;
}

std::string read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

// The published 64-bit FNV-1a, written out here rather than borrowed from
// the library so the checkpoint pin shares no code with what it pins.
std::uint64_t fnv1a_64(const std::string& bytes) {
    std::uint64_t hash = 14695981039346656037ull;
    for (const unsigned char b : bytes) {
        hash ^= b;
        hash *= 1099511628211ull;
    }
    return hash;
}

// `body` (magic, config hash, payload) followed by the checksum a valid
// checkpoint carries, so a mutated payload gets past the checksum test.
std::string reseal(const std::string& body) {
    const std::uint64_t sum = core::fnv1a(body);
    return body + std::string(reinterpret_cast<const char*>(&sum), 8);
}

// --- candidate space ------------------------------------------------------

TEST(Candidate, SpecRendersEachFamily) {
    using Kind = tune::CandidateKind;
    using Model = core::RewardModelKind;
    const std::pair<tune::PolicyCandidate, const char*> cases[] = {
        {{.kind = Kind::kGreedy}, "greedy:tabular"},
        {{.kind = Kind::kGreedy, .model = Model::kLinear, .epsilon = 0.05},
         "greedy:linear:0.05"},
        {{.kind = Kind::kSoftmax, .model = Model::kKnn, .temperature = 0.5},
         "softmax:knn:0.5"},
        {{.kind = Kind::kConstant, .arm = 7}, "constant:7"},
        {{.kind = Kind::kMixture, .arm = 2, .mixture_weight = 0.75},
         "mix:tabular:2:0.75"},
    };
    for (const auto& [candidate, spec] : cases) EXPECT_EQ(candidate.spec(), spec);
}

TEST(Candidate, EnumerateIsDeterministicAndOrdered) {
    tune::CandidateSpace space;
    space.num_decisions = 3;
    space.models = {core::RewardModelKind::kTabular,
                    core::RewardModelKind::kLinear};
    space.epsilons = {0.0, 0.1};
    space.temperatures = {0.5};
    space.include_constants = true;
    space.mixture_weights = {0.5};
    const auto a = tune::enumerate(space);
    const auto b = tune::enumerate(space);
    ASSERT_EQ(a.size(), b.size());
    // 2 models x 2 epsilons + 2 softmax + 3 constants + 2 mixtures.
    EXPECT_EQ(a.size(), 11u);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].spec(), b[i].spec());
    EXPECT_EQ(a[0].spec(), "greedy:tabular");
    EXPECT_EQ(a.back().kind, tune::CandidateKind::kMixture);
}

TEST(Candidate, MaterializedPoliciesAreValidDistributions) {
    const PlantedBestEnv env;
    const Trace trace = collect_uniform(env, 600, 11);
    tune::CandidateSpace space;
    space.num_decisions = 3;
    space.epsilons = {0.0, 0.1};
    space.temperatures = {0.7};
    space.include_constants = true;
    space.mixture_weights = {0.5};
    for (const tune::PolicyCandidate& c : tune::enumerate(space)) {
        const auto policy = tune::materialize(c, trace, 3);
        const auto probs =
            policy->action_probabilities(ClientContext({0.0}, {}));
        ASSERT_EQ(probs.size(), 3u) << c.spec();
        double sum = 0.0;
        for (const double p : probs) {
            EXPECT_GE(p, 0.0) << c.spec();
            sum += p;
        }
        EXPECT_NEAR(sum, 1.0, 1e-12) << c.spec();
    }
}

// --- controller -----------------------------------------------------------

TEST(Controller, TriesEveryArmThenExploits) {
    tune::RecencyWeightedBandit controller(3, {0.0, 0.5});
    stats::Rng rng(5);
    EXPECT_EQ(controller.propose(rng), 0u);
    controller.record(0, 0.2);
    EXPECT_EQ(controller.propose(rng), 1u);
    controller.record(1, 0.9);
    EXPECT_EQ(controller.propose(rng), 2u);
    controller.record(2, 0.5);
    // epsilon = 0: pure exploitation of the best recency-weighted score.
    EXPECT_EQ(controller.propose(rng), 1u);
    // Recency: one bad score pulls arm 1 below arm 2.
    controller.record(1, -1.0);
    EXPECT_EQ(controller.propose(rng), 2u);
}

TEST(Controller, RestoreReproducesProposals) {
    tune::RecencyWeightedBandit a(4, {0.3, 0.5});
    stats::Rng warm(9);
    for (int i = 0; i < 12; ++i) a.record(a.propose(warm), warm.uniform());

    tune::RecencyWeightedBandit b(4, {0.3, 0.5});
    b.restore(a.scores(), a.counts());
    stats::Rng ra(77), rb(77);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(a.propose(ra), b.propose(rb));
}

// --- offline search -------------------------------------------------------

TEST(OfflineSearch, FindsPlantedBestWithByteIdenticalLeaderboard) {
    ThreadCountGuard guard;
    const PlantedBestEnv env;
    const Trace trace = collect_uniform(env, 3000, 21);
    const auto candidates = constant_candidates(3);

    tune::OfflineSearchOptions options;
    options.bootstrap_replicates = 200;

    par::set_thread_count(1);
    stats::Rng rng1(42);
    const tune::Leaderboard board1 =
        tune::search_policies(trace, candidates, options, rng1);

    par::set_thread_count(8);
    stats::Rng rng8(42);
    const tune::Leaderboard board8 =
        tune::search_policies(trace, candidates, options, rng8);

    EXPECT_EQ(board1.to_text(), board8.to_text());
    EXPECT_EQ(board1.best().candidate.spec(), "constant:1");
    EXPECT_LT(board1.best().ci.lower, board1.best().dr_value);
    EXPECT_GT(board1.best().ci.upper, board1.best().dr_value);
}

TEST(OfflineSearch, RejectsDegenerateInputs) {
    const PlantedBestEnv env;
    const Trace trace = collect_uniform(env, 100, 3);
    stats::Rng rng(1);
    EXPECT_THROW(tune::search_policies(trace, {}, {}, rng),
                 std::invalid_argument);
    tune::OfflineSearchOptions bad;
    bad.train_fraction = 1.0;
    EXPECT_THROW(
        tune::search_policies(trace, constant_candidates(3), bad, rng),
        std::invalid_argument);
}

// --- online tuner ---------------------------------------------------------

tune::TuneOptions fast_options(std::uint64_t waves) {
    tune::TuneOptions options;
    options.waves = waves;
    options.bootstrap_replicates = 100;
    return options;
}

TEST(Tuner, PromotesPlantedBestAndIsThreadCountInvariant) {
    ThreadCountGuard guard;
    const PlantedBestEnv env;
    const tune::EnvWaveSource source(env, 400);
    const auto candidates = constant_candidates(3);
    const tune::TuneOptions options = fast_options(6);

    par::set_thread_count(1);
    const tune::TuneResult r1 = tune::run_tune(source, candidates, options, 4);
    par::set_thread_count(8);
    const tune::TuneResult r8 = tune::run_tune(source, candidates, options, 4);

    EXPECT_EQ(r1.journal_text(), r8.journal_text());
    EXPECT_EQ(r1.incumbent_spec, r8.incumbent_spec);
    ASSERT_EQ(r1.wave_rewards.size(), r8.wave_rewards.size());
    for (std::size_t i = 0; i < r1.wave_rewards.size(); ++i)
        EXPECT_EQ(r1.wave_rewards[i], r8.wave_rewards[i]);

    // The planted best wins, through at least one gated promotion.
    EXPECT_TRUE(r1.has_incumbent);
    EXPECT_EQ(r1.incumbent_spec, "constant:1");
    EXPECT_GE(r1.promotions, 1u);
    // Promotions are visible in the journal with the gate's verdict.
    EXPECT_NE(r1.journal_text().find("decision=promote"), std::string::npos);
}

TEST(Tuner, HoldsWhenCiStraddlesZero) {
    const EqualArmsEnv env;
    const tune::EnvWaveSource source(env, 400);
    const auto candidates = constant_candidates(3);
    tune::TuneOptions options = fast_options(5);
    options.ci_level = 0.99;

    const tune::TuneResult result =
        tune::run_tune(source, candidates, options, 12);
    EXPECT_EQ(result.promotions, 0u);
    EXPECT_FALSE(result.has_incumbent);
    EXPECT_EQ(result.incumbent_spec, "uniform");
    EXPECT_EQ(result.journal_text().find("decision=promote"),
              std::string::npos);
}

TEST(Tuner, CheckpointResumeIsBitIdentical) {
    const PlantedBestEnv env;
    const tune::EnvWaveSource source(env, 400);
    const auto candidates = constant_candidates(3);
    const std::string ckpt = temp_path("tune_resume.ckpt");
    std::remove(ckpt.c_str());

    tune::TuneOptions options = fast_options(6);
    const tune::TuneResult full =
        tune::run_tune(source, candidates, options, 4);
    // The planted-best run promotes early; interrupting at wave 3 leaves a
    // checkpoint whose incumbent must be rebuilt by replay on resume.
    ASSERT_GE(full.promotions, 1u);

    std::atomic<bool> stop{false};
    const InterruptingSource interrupting(source, 3, stop);
    options.checkpoint_path = ckpt;
    options.interrupt = &stop;
    const tune::TuneResult partial =
        tune::run_tune(interrupting, candidates, options, 4);
    EXPECT_TRUE(partial.interrupted);
    ASSERT_LT(partial.waves_run, full.waves_run);

    options.interrupt = nullptr;
    options.resume = true;
    const tune::TuneResult resumed =
        tune::run_tune(source, candidates, options, 4);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.journal_text(), full.journal_text());
    EXPECT_EQ(resumed.incumbent_spec, full.incumbent_spec);
    EXPECT_EQ(resumed.promotions, full.promotions);
    ASSERT_EQ(resumed.wave_rewards.size(), full.wave_rewards.size());
    for (std::size_t i = 0; i < full.wave_rewards.size(); ++i)
        EXPECT_EQ(resumed.wave_rewards[i], full.wave_rewards[i]);
    ASSERT_EQ(resumed.controller_scores.size(),
              full.controller_scores.size());
    for (std::size_t i = 0; i < full.controller_scores.size(); ++i)
        EXPECT_EQ(resumed.controller_scores[i], full.controller_scores[i]);
    std::remove(ckpt.c_str());
}

TEST(Tuner, RefusesMismatchedCheckpoint) {
    const PlantedBestEnv env;
    const tune::EnvWaveSource source(env, 400);
    const auto candidates = constant_candidates(3);
    const std::string ckpt = temp_path("tune_mismatch.ckpt");
    std::remove(ckpt.c_str());

    tune::TuneOptions options = fast_options(2);
    options.checkpoint_path = ckpt;
    const tune::TuneResult run = tune::run_tune(source, candidates, options, 4);
    ASSERT_GE(run.promotions, 1u);

    // Known answer: the DRETUNE1 bytes of this run (a promotion included),
    // so any change to the on-disk format shows up here first.
    const std::string original = read_bytes(ckpt);
    EXPECT_EQ(original.size(), 576u);
    EXPECT_EQ(fnv1a_64(original), 0x1d1f9daca170dacaull);

    options.resume = true;

    // Every prefix and every single-byte flip of that file, re-sealed with
    // a valid checksum so the payload parser itself is under test: each
    // mutant resumes or is refused with std::runtime_error — nothing else,
    // and no crash (a flipped candidate index must not be followed).
    const std::string payload = original.substr(0, original.size() - 8);
    const auto resumes_or_refuses = [&](const std::string& body,
                                        const std::string& label) {
        std::ofstream(ckpt, std::ios::binary | std::ios::trunc)
            << reseal(body);
        try {
            (void)tune::run_tune(source, candidates, options, 4);
        } catch (const std::runtime_error&) {
        } catch (const std::exception& e) {
            ADD_FAILURE() << label << ": " << e.what();
        }
    };
    for (std::size_t len = 0; len < payload.size(); ++len)
        resumes_or_refuses(payload.substr(0, len),
                           "prefix " + std::to_string(len));
    for (std::size_t i = 0; i < payload.size(); ++i) {
        std::string flipped = payload;
        flipped[i] = static_cast<char>(flipped[i] ^ 0xFF);
        resumes_or_refuses(flipped, "flip " + std::to_string(i));
    }
    // A payload byte past the last field is refused, not ignored.
    std::ofstream(ckpt, std::ios::binary | std::ios::trunc)
        << reseal(payload + '\0');
    EXPECT_THROW((void)tune::run_tune(source, candidates, options, 4),
                 std::runtime_error);
    std::ofstream(ckpt, std::ios::binary | std::ios::trunc) << original;

    EXPECT_THROW((void)tune::run_tune(source, candidates, options, 5),
                 std::runtime_error); // different seed => config mismatch
    std::remove(ckpt.c_str());
}

TEST(Tuner, RejectsDegenerateOptions) {
    const PlantedBestEnv env;
    const tune::EnvWaveSource source(env, 400);
    const auto candidates = constant_candidates(3);
    EXPECT_THROW((void)tune::run_tune(source, {}, fast_options(2), 1),
                 std::invalid_argument);
    EXPECT_THROW((void)tune::run_tune(source, candidates, fast_options(0), 1),
                 std::invalid_argument);
    tune::TuneOptions bad = fast_options(2);
    bad.bootstrap_replicates = 1;
    EXPECT_THROW((void)tune::run_tune(source, candidates, bad, 1),
                 std::invalid_argument);
}

// --- logged-propensity exactness (regression) -----------------------------

// The tuner's DR gate trusts the propensities run_bandit logs. For
// ContextualAgent (independent inner agent per context key) the logged
// propensity must be exactly the probability the per-context agent
// reported: replaying the logged trace through a lockstep duplicate agent
// must reproduce every propensity bit for bit.
TEST(ContextualAgent, LoggedPropensitiesAreExact) {
    const auto factory = [] {
        return std::make_unique<bandit::EpsilonGreedyAgent>(3, 0.2);
    };
    const PlantedBestEnv env;
    bandit::ContextualAgent logger(factory);
    stats::Rng rng(31);
    const bandit::BanditRunResult result =
        bandit::run_bandit(env, logger, 500, rng);

    bandit::ContextualAgent replayer(factory);
    for (const LoggedTuple& t : result.trace) {
        const std::vector<double> probs =
            replayer.action_probabilities(t.context);
        ASSERT_EQ(probs.size(), 3u);
        EXPECT_EQ(t.propensity, probs[static_cast<std::size_t>(t.decision)]);
        replayer.update(t.context, t.decision, t.reward);
    }
}

// Satellite regression for run_bandit's new reporting series: wave rewards
// partition the run and the regret series is consistent with the realized
// average.
TEST(RunBandit, WaveRewardAndRegretSeries) {
    const PlantedBestEnv env;
    bandit::EpsilonGreedyAgent agent(3, 0.1);
    stats::Rng rng(8);
    bandit::BanditRunOptions options;
    options.wave_size = 100;
    options.regret_baseline = 0.9;
    const bandit::BanditRunResult result =
        bandit::run_bandit(env, agent, 450, rng, options);

    ASSERT_EQ(result.wave_rewards.size(), 5u); // 100*4 + 50
    ASSERT_EQ(result.cumulative_regret.size(), 5u);
    // Cumulative regret is nondecreasing in expectation-free form only if
    // per-step regret >= 0; here rewards can exceed the baseline only via
    // noise, so just check the identity with average_reward.
    EXPECT_NEAR(result.total_regret,
                (0.9 - result.average_reward) * 450.0, 1e-9);
    EXPECT_EQ(result.cumulative_regret.back(), result.total_regret);
    const bandit::BanditRunResult no_regret =
        bandit::run_bandit(env, agent, 10, rng);
    EXPECT_TRUE(std::isnan(no_regret.total_regret));
    EXPECT_TRUE(no_regret.cumulative_regret.empty());
    EXPECT_EQ(no_regret.wave_rewards.size(), 1u);
}

} // namespace
} // namespace dre
