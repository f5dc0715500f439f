#include "netsim/queue_sim.h"

#include <algorithm>
#include <stdexcept>

namespace dre::netsim {

QueueSimulator::QueueSimulator(std::vector<double> service_rates)
    : service_rates_(std::move(service_rates)) {
    if (service_rates_.empty())
        throw std::invalid_argument("QueueSimulator: no servers");
    for (double rate : service_rates_)
        if (rate <= 0.0)
            throw std::invalid_argument("QueueSimulator: service rate must be > 0");
}

std::vector<QueueOutcome> QueueSimulator::run(
    const std::vector<QueueRequest>& requests, stats::Rng& rng) const {
    // Per-server time at which the server next becomes free.
    std::vector<double> free_at(service_rates_.size(), 0.0);
    std::vector<QueueOutcome> outcomes;
    outcomes.reserve(requests.size());

    double previous_arrival = 0.0;
    for (const QueueRequest& request : requests) {
        if (request.server >= service_rates_.size())
            throw std::invalid_argument("QueueSimulator: server out of range");
        if (request.arrival_time < previous_arrival)
            throw std::invalid_argument(
                "QueueSimulator: requests must be sorted by arrival time");
        previous_arrival = request.arrival_time;

        QueueOutcome outcome;
        const double start =
            std::max(request.arrival_time, free_at[request.server]);
        outcome.wait_s = start - request.arrival_time;
        outcome.service_s = rng.exponential(service_rates_[request.server]);
        free_at[request.server] = start + outcome.service_s;
        outcomes.push_back(outcome);
    }
    return outcomes;
}

} // namespace dre::netsim
