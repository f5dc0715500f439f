// The Fig. 4 / Fig. 7a scenario: CDN request routing with an incomplete
// learned causal model.
//
// World: requests from 2 ISPs choose a frontend (FE-1/FE-2) and a backend
// (BE-1/BE-2); a request's decision is the (FE, BE) pair, i.e. 4 decisions.
// Ground truth: "the response time of a request from ISP-1 is high only
// when it uses BE-1 and FE-1"; everything else is short.
//
// Trace (paper §4.2): "500 clients for each measurement (arrow) in Figure 4,
// and 5 clients for each remaining choice of backend and frontend". The new
// policy keeps the same traffic pattern "except that 50% of ISP-1 clients
// use FE-1 and BE-2".
//
// The WISE-style evaluator (DM over a CbnResponseModel) mispredicts the
// starved (ISP-1, FE-1, BE-2) cell; DR repairs it with the 5 logged clients.
#ifndef DRE_WISE_SCENARIO_H
#define DRE_WISE_SCENARIO_H

#include <memory>

#include "core/environment.h"
#include "core/policy.h"
#include "core/reward_model.h"
#include "stats/rng.h"
#include "wise/cbn.h"

namespace dre::wise {

// Decisions: (frontend, backend) pairs.
inline constexpr std::size_t kNumFrontends = 2;
inline constexpr std::size_t kNumBackends = 2;
inline constexpr std::size_t kNumDecisions = kNumFrontends * kNumBackends;

Decision encode_decision(std::size_t frontend, std::size_t backend);
std::size_t frontend_of(Decision d);
std::size_t backend_of(Decision d);

struct WiseWorldConfig {
    std::size_t num_isps = 2;
    double short_response_ms = 50.0;
    double long_response_ms = 250.0;
    double noise_sigma = 10.0; // Gaussian response-time noise
};

// Environment: context = {isp} (categorical); reward = -response_time/100.
class RequestRoutingEnv final : public core::Environment {
public:
    explicit RequestRoutingEnv(WiseWorldConfig config);

    ClientContext sample_context(stats::Rng& rng) const override;
    Reward sample_reward(const ClientContext& context, Decision d,
                         stats::Rng& rng) const override;
    double expected_reward(const ClientContext& context, Decision d,
                           stats::Rng& rng, int samples) const override;
    std::size_t num_decisions() const noexcept override { return kNumDecisions; }

    double mean_response_ms(std::int32_t isp, Decision d) const;

private:
    WiseWorldConfig config_;
};

// Old policy: per ISP, weight 500 on the "observed arrow" decision and 5 on
// each other decision (normalized) — reproducing the trace skew.
std::shared_ptr<core::Policy> make_logging_policy(std::size_t num_isps,
                                                  double observed_weight = 500.0,
                                                  double rare_weight = 5.0);

// New policy: same as logging, except 50% of ISP-1 clients use (FE-1, BE-2)
// with the remaining mass scaled down proportionally.
std::shared_ptr<core::Policy> make_new_policy(std::size_t num_isps,
                                              double shifted_fraction = 0.5,
                                              double observed_weight = 500.0,
                                              double rare_weight = 5.0);

// WISE's reward model: a CBN over (isp, frontend, backend) fit on the trace,
// adapted to the RewardModel interface (predicts reward = -RT/100).
class WiseCbnRewardModel final : public core::RewardModel {
public:
    explicit WiseCbnRewardModel(CbnOptions options = {});

    void fit(const Trace& trace);

    double predict(const ClientContext& context, Decision d) const override;
    std::size_t num_decisions() const noexcept override { return kNumDecisions; }

    const CbnResponseModel& cbn() const;

private:
    CbnOptions options_;
    std::unique_ptr<CbnResponseModel> model_;
};

} // namespace dre::wise

#endif // DRE_WISE_SCENARIO_H
