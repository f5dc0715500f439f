// Discrete-event queueing simulator.
//
// The analytic M/M/1 curve in netsim::Server is fine for coarse rewards,
// but §1 reminds us trace-driven evaluation exists because real systems
// have "complex interactions that ... might be intractable to simulate
// analytically". This module simulates actual FIFO queues per server with
// exponential service times, producing per-request sojourn times that
// include genuine queueing transients (bursts, idle periods, build-ups).
#ifndef DRE_NETSIM_QUEUE_SIM_H
#define DRE_NETSIM_QUEUE_SIM_H

#include <cstddef>
#include <vector>

#include "stats/rng.h"

namespace dre::netsim {

struct QueueRequest {
    double arrival_time = 0.0; // seconds since simulation start (ascending)
    std::size_t server = 0;
};

struct QueueOutcome {
    double wait_s = 0.0;    // time spent queued before service
    double service_s = 0.0; // service time
    double sojourn_s() const noexcept { return wait_s + service_s; }
};

// FIFO multi-queue simulator: one unbounded single-server FIFO queue per
// server, exponential service with per-server rates (requests/second).
class QueueSimulator {
public:
    explicit QueueSimulator(std::vector<double> service_rates);

    // Simulate all requests (must be sorted by arrival time). Returns one
    // outcome per request, in input order.
    std::vector<QueueOutcome> run(const std::vector<QueueRequest>& requests,
                                  stats::Rng& rng) const;

private:
    std::vector<double> service_rates_;
};

} // namespace dre::netsim

#endif // DRE_NETSIM_QUEUE_SIM_H
