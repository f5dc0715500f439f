// dre_loadgen — concurrent load generator and correctness prober for a
// running dre_serve instance.
//
// Usage:
//   dre_loadgen --port <n> <trace> <policy> [options]
//
// Options:
//   --port <n>         server port on 127.0.0.1 (required, 1..65535)
//   --model <kind>     reward model (tabular | linear | knn; default tabular)
//   --ci <replicates>  bootstrap CI replicates (default 0 = off)
//   --seed <n>         base RNG seed (default 1)
//   --clients <n>      concurrent client connections (default 1)
//   --requests <n>     requests per client (default 8)
//   --distinct         vary the seed per request (seed + request index), so
//                      no two requests coalesce and every one computes;
//                      default sends identical requests, which exercises
//                      the shared caches and in-flight coalescing
//   --retry <n>        client-side retry budget per request (max attempts;
//                      default 1 = no retries). Backoff is virtual — the
//                      schedule is recorded, never slept — so retried runs
//                      stay deterministic and fast (see serve::RetryingClient)
//   --deadline-ms <n>  attach a deadline to every request; the server may
//                      shed it at admission or answer kDeadlineExceeded.
//                      Deadline-exceeded replies are counted, not failures
//   --dump-response    print the first response's text verbatim to stdout
//                      (and the summary to stderr), so CI can byte-diff a
//                      server response against `dre_eval` output
//
// Every request carries a client-generated trace id, and the server must
// echo that exact id on the Result frame; any other echo, zero included,
// is a protocol failure. The ids line up with the server's --journal
// records, so a journal line can be traced back to the exact loadgen
// request that produced it.
//
// Every non-degraded response for the same (trace, policy, model, ci,
// seed) tuple must be byte-identical — across clients, across repeats, and
// to the dre_eval CLI. The loadgen verifies the cross-client part itself
// and exits 1 on any mismatch; responses flagged degraded (served under
// server brownout) are counted separately and excluded from the canonical
// comparison, since their coverage depends on transient queue depth.
// Per-request latency lands in an obs::Histogram and the summary prints
// its p50/p90/p99.
//
// Exit codes: 0 success, 1 a response failed verification (its bytes or
// its trace id), 2 bad arguments (an `error:` line first), 3 a request
// failed (cannot connect, or the server answered an error), 4 anything
// else.
#include <chrono>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cli_flags.h"

#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "serve/client.h"

namespace {

int usage() {
    std::fprintf(stderr,
                 "usage: dre_loadgen --port N <trace> <policy> [--model kind] "
                 "[--ci N] [--seed N]\n"
                 "                   [--clients N] [--requests N] [--distinct] "
                 "[--dump-response]\n"
                 "                   [--retry N] [--deadline-ms N]\n");
    return 2;
}

int usage_error(const std::string& message) {
    std::fprintf(stderr, "error: %s\n", message.c_str());
    return usage();
}

} // namespace

int main(int argc, char** argv) {
    using namespace dre;

    std::uint16_t port = 0; // 0 = not given
    std::string trace_path;
    std::string policy_spec;
    std::string model = "tabular";
    std::uint32_t ci_replicates = 0;
    std::uint64_t seed = 1;
    std::size_t clients = 1;
    std::size_t requests = 8;
    bool distinct = false;
    bool dump_response = false;
    int retry_attempts = 1;
    std::uint64_t deadline_ms = 0;

    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--port") {
            port = tools::parse_count_flag<std::uint16_t>(
                "--port", tools::flag_value(argc, argv, i, "--port"));
        } else if (arg == "--model") {
            model = tools::flag_value(argc, argv, i, "--model");
        } else if (arg == "--ci") {
            ci_replicates = static_cast<std::uint32_t>(
                tools::parse_replicate_count(
                    "--ci", tools::flag_value(argc, argv, i, "--ci")));
        } else if (arg == "--seed") {
            seed = tools::parse_flag<std::uint64_t>(
                "--seed", tools::flag_value(argc, argv, i, "--seed"));
        } else if (arg == "--clients") {
            clients = tools::parse_count_flag<std::size_t>(
                "--clients", tools::flag_value(argc, argv, i, "--clients"));
        } else if (arg == "--requests") {
            requests = tools::parse_count_flag<std::size_t>(
                "--requests", tools::flag_value(argc, argv, i, "--requests"));
        } else if (arg == "--distinct") {
            distinct = true;
        } else if (arg == "--dump-response") {
            dump_response = true;
        } else if (arg == "--retry") {
            retry_attempts = tools::parse_count_flag<int>(
                "--retry", tools::flag_value(argc, argv, i, "--retry"));
        } else if (arg == "--deadline-ms") {
            deadline_ms = tools::parse_flag<std::uint64_t>(
                "--deadline-ms",
                tools::flag_value(argc, argv, i, "--deadline-ms"));
        } else if (!arg.empty() && arg[0] == '-') {
            return usage_error("unknown argument '" + arg + "'");
        } else {
            positional.push_back(arg);
        }
    }
    if (port == 0) return usage_error("--port is required");
    if (positional.size() != 2)
        return usage_error("expected 2 arguments (<trace> <policy>), got " +
                           std::to_string(positional.size()));
    trace_path = positional[0];
    policy_spec = positional[1];

    FILE* const summary = dump_response ? stderr : stdout;

    obs::Histogram latency_ms;
    std::mutex state_mutex;
    // request seed -> first response text seen; later responses for the
    // same seed must match byte for byte, whichever client they came from.
    std::map<std::uint64_t, std::string> canonical;
    std::string first_response;
    std::string failure;             // first failed verification (exit 1)
    std::exception_ptr client_error; // first request that threw
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t echo_confirmed = 0; // Result.trace_id == request.trace_id
    std::uint64_t deadline_hits = 0;  // kDeadlineExceeded replies (not failures)
    std::uint64_t degraded_count = 0; // brownout replies (excluded from
                                      // the canonical byte comparison)
    std::uint64_t retries_total = 0;
    double backoff_total_ms = 0.0; // virtual, never slept

    const auto wall_start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            serve::RetryingClient client(port, retry_attempts);
            try {
                for (std::size_t r = 0; r < requests; ++r) {
                    serve::EvaluateMsg request;
                    request.trace = trace_path;
                    request.policy = policy_spec;
                    request.model = model;
                    request.ci_replicates = ci_replicates;
                    request.seed =
                        distinct ? seed + c * requests + r : seed;
                    request.deadline_ms = deadline_ms;
                    // Tag every request with a fresh client-side trace id;
                    // the server's journal records the same id, so journal
                    // lines map 1:1 to loadgen requests.
                    request.trace_id = obs::next_trace_id();
                    const auto start = std::chrono::steady_clock::now();
                    serve::ResultMsg result;
                    try {
                        result = client.evaluate(request);
                    } catch (const serve::ServeError& e) {
                        if (e.code() == serve::ErrorCode::kOverloaded) {
                            std::lock_guard<std::mutex> lock(state_mutex);
                            ++rejected;
                            continue;
                        }
                        if (e.code() ==
                            serve::ErrorCode::kDeadlineExceeded) {
                            std::lock_guard<std::mutex> lock(state_mutex);
                            ++deadline_hits;
                            continue;
                        }
                        throw;
                    }
                    const double ms =
                        std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
                    latency_ms.record(ms);
                    std::lock_guard<std::mutex> lock(state_mutex);
                    ++completed;
                    if (result.trace_id == request.trace_id) {
                        ++echo_confirmed;
                    } else if (failure.empty()) {
                        failure = "server echoed trace id " +
                                  std::to_string(result.trace_id) +
                                  " for request " +
                                  std::to_string(request.trace_id);
                    }
                    if (result.degraded) {
                        // Brownout reply: flagged, coverage-dependent, so
                        // it never enters the canonical byte comparison.
                        ++degraded_count;
                        continue;
                    }
                    if (first_response.empty()) first_response = result.text;
                    auto [it, inserted] =
                        canonical.emplace(request.seed, result.text);
                    if (!inserted && it->second != result.text &&
                        failure.empty())
                        failure = "responses for seed " +
                                  std::to_string(request.seed) +
                                  " differ across requests";
                }
            } catch (const std::exception&) {
                std::lock_guard<std::mutex> lock(state_mutex);
                if (!client_error) client_error = std::current_exception();
            }
            std::lock_guard<std::mutex> lock(state_mutex);
            retries_total += client.retries();
            backoff_total_ms += client.virtual_backoff_ms();
        });
    }
    for (std::thread& t : threads) t.join();
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - wall_start)
                               .count();

    try {
        if (client_error) std::rethrow_exception(client_error);
    } catch (const std::exception& e) {
        return tools::report_error(e);
    }
    if (!failure.empty()) {
        std::fprintf(stderr, "error: %s\n", failure.c_str());
        return 1;
    }

    if (dump_response) std::fwrite(first_response.data(), 1,
                                   first_response.size(), stdout);

    const double rps = wall_ms > 0.0
                           ? static_cast<double>(completed) / (wall_ms / 1000.0)
                           : 0.0;
    std::fprintf(summary,
                 "loadgen: %zu clients x %zu requests (%s seeds): "
                 "%llu ok, %llu rejected in %.1f ms (%.1f req/s)\n",
                 clients, requests, distinct ? "distinct" : "identical",
                 static_cast<unsigned long long>(completed),
                 static_cast<unsigned long long>(rejected), wall_ms, rps);
    std::fprintf(summary,
                 "latency ms: p50 %.2f  p90 %.2f  p99 %.2f  (min %.2f max "
                 "%.2f mean %.2f)\n",
                 latency_ms.p50(), latency_ms.p90(), latency_ms.p99(),
                 latency_ms.min(), latency_ms.max(), latency_ms.mean());
    std::fprintf(summary, "trace ids: %llu echoed\n",
                 static_cast<unsigned long long>(echo_confirmed));
    if (retry_attempts > 1 || deadline_ms > 0 || degraded_count > 0)
        std::fprintf(summary,
                     "resilience: %llu retries (%.1f ms virtual backoff), "
                     "%llu deadline-exceeded, %llu degraded\n",
                     static_cast<unsigned long long>(retries_total),
                     backoff_total_ms,
                     static_cast<unsigned long long>(deadline_hits),
                     static_cast<unsigned long long>(degraded_count));

    // One Stats round trip so operators see the server-side view too.
    try {
        serve::Client client(port);
        const serve::StatsReplyMsg stats = client.stats();
        std::fprintf(summary,
                     "server: %llu total (%llu coalesced, %llu rejected), "
                     "evaluator cache %llu hits / %llu misses, server p50 "
                     "%.2f ms p99 %.2f ms\n",
                     static_cast<unsigned long long>(stats.requests_total),
                     static_cast<unsigned long long>(stats.coalesced),
                     static_cast<unsigned long long>(stats.rejected),
                     static_cast<unsigned long long>(stats.evaluator_hits),
                     static_cast<unsigned long long>(stats.evaluator_misses),
                     stats.p50_ms, stats.p99_ms);
    } catch (const std::exception& e) {
        std::fprintf(summary, "server stats unavailable: %s\n", e.what());
    }

    return 0;
}
