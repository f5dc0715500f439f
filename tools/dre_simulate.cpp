// dre_simulate — generate logged traces from the built-in scenario worlds.
//
// Usage:
//   dre_simulate <scenario> <output.csv> [--n N] [--seed S] [--epsilon e]
//
// Scenarios:
//   wise      Fig. 4 CDN request-routing world, skewed logging policy
//   cdn       CFA video-quality world, uniform random logging
//   relay     VIA NAT-confounded relay world, NAT-based logging (+epsilon)
//   routing   3-path traffic-engineering world, peering-first logging (+epsilon)
//   servers   stateless server-selection world, uniform logging
//
// The emitted CSV round-trips through dre_eval, so the two tools form a
// complete offline-evaluation pipeline:
//   dre_simulate cdn trace.csv --n 20000
//   dre_eval trace.csv greedy:knn --cross-fit --ci 1000
//
// Exit codes follow dre_eval: 0 success, 2 bad arguments (an unknown flag
// or scenario, a malformed number, --n 0), 3 an output it cannot write,
// 4 internal error. Each failure prints one `error: ...` line to stderr.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "cli_flags.h"

#include "cdn/scenario.h"
#include "core/environment.h"
#include "netsim/assignment_env.h"
#include "netsim/routing_env.h"
#include "relay/scenario.h"
#include "trace/csv.h"
#include "wise/scenario.h"

using namespace dre;

namespace {

[[noreturn]] void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s <wise|cdn|relay|routing|servers> <output.csv> "
                 "[--n N] [--seed S] [--epsilon e]\n",
                 argv0);
    std::exit(2);
}

Trace simulate(const std::string& scenario, std::size_t n, std::uint64_t seed,
               double epsilon) {
    stats::Rng rng(seed);
    if (scenario == "wise") {
        wise::RequestRoutingEnv env{wise::WiseWorldConfig{}};
        const auto logging = wise::make_logging_policy(2);
        return core::collect_trace(env, *logging, n, rng);
    }
    if (scenario == "cdn") {
        cdn::VideoQualityEnv env{cdn::CdnWorldConfig{}};
        core::UniformRandomPolicy logging(env.num_decisions());
        return core::collect_trace(env, logging, n, rng);
    }
    if (scenario == "relay") {
        const relay::RelayWorldConfig config;
        relay::RelayEnv env(config);
        const auto logging = relay::make_nat_logging_policy(config, epsilon);
        return core::collect_trace(env, *logging, n, rng);
    }
    if (scenario == "routing") {
        const netsim::RoutingEnv env = netsim::RoutingEnv::standard3();
        auto base = std::make_shared<core::DeterministicPolicy>(
            env.num_decisions(), [](const ClientContext&) { return Decision{0}; });
        core::EpsilonGreedyPolicy logging(base, epsilon);
        return core::collect_trace(env, logging, n, rng);
    }
    if (scenario == "servers") {
        netsim::ServerSelectionEnv env(4, 4, seed ^ 0x5eedull);
        core::UniformRandomPolicy logging(env.num_decisions());
        return core::collect_trace(env, logging, n, rng);
    }
    throw std::invalid_argument("unknown scenario: " + scenario);
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 3) usage(argv[0]);
    try {
        const std::string scenario = argv[1];
        const std::string output = argv[2];
        std::size_t n = 5000;
        std::uint64_t seed = 1;
        double epsilon = 0.2;
        for (int i = 3; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--n") {
                n = tools::parse_flag<std::size_t>(
                    "--n", tools::flag_value(argc, argv, i, "--n"));
            } else if (arg == "--seed") {
                seed = tools::parse_flag<std::uint64_t>(
                    "--seed", tools::flag_value(argc, argv, i, "--seed"));
            } else if (arg == "--epsilon") {
                epsilon = tools::parse_unit_flag(
                    "--epsilon", tools::flag_value(argc, argv, i, "--epsilon"));
            } else {
                std::fprintf(stderr, "error: unknown argument '%s'\n",
                             arg.c_str());
                usage(argv[0]);
            }
        }
        if (n == 0) throw std::invalid_argument("--n must be > 0");

        const Trace trace = simulate(scenario, n, seed, epsilon);
        write_csv_file(trace, output);
        std::printf("wrote %zu tuples (%zu decisions) to %s\n", trace.size(),
                    trace.num_decisions(), output.c_str());
        return 0;
    } catch (const std::exception& e) {
        return tools::report_error(e);
    }
}
