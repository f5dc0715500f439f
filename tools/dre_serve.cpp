// dre_serve — long-running evaluation service over the dre::serve protocol.
//
// Usage:
//   dre_serve [options]
//
// Options:
//   --port <n>        TCP port on 127.0.0.1 (default 0 = kernel-assigned)
//   --port-file <f>   write the bound port (one line) once listening; lets
//                     scripts start the server on port 0 and discover the
//                     ephemeral port without a race
//   --max-queue <n>   pending unique Evaluate jobs before admission control
//                     answers kOverloaded (default 64)
//
// Resilience (DESIGN.md §15):
//   --brownout-watermark <n>  queue depth at/above which new unique
//                             requests are served degraded (cache-only or
//                             coverage-rescaled prefix evaluation with an
//                             explicit degraded flag; default 0 = off)
//   --brownout-coverage <x>   target trace coverage for degraded
//                             evaluations, in [0, 1] (default 0.25)
//   --idle-timeout-ms <n>     io watchdog: reap sessions idle this long
//                             with no request in flight (default 0 = off)
//   --fault-spec <spec>       arm deterministic network/dispatch fault
//                             injection, e.g.
//                             "serve.read:p=0.02,kind=transient;serve.write:every=9,kind=slow"
//                             (see fault/fault.h; serve.accept, serve.read,
//                             serve.write, serve.dispatch)
//   --fault-seed <n>          seed for the fault schedule (default 1)
//
// Telemetry (DESIGN.md §13; all of these need a DRE_OBS_ENABLED build and
// exit 3 otherwise — a disabled build has nothing to export):
//   --metrics-port <n>        serve GET /metrics (OpenMetrics text) and
//                             GET /healthz on 127.0.0.1:<n> (0 = kernel-
//                             assigned; discover via --metrics-port-file)
//   --metrics-port-file <f>   write the bound metrics port once listening
//   --journal <f>             append a JSONL record per answered request
//   --journal-threshold-ms <x> only journal requests at/above this total
//                             latency (errors always log; default 0 = all)
//   --trace-out <f>           enable span tracing; write a chrome://tracing
//                             JSON file on shutdown
//
// `dre_top --metrics-port <n>` renders the /metrics listener live.
//
// The process owns the traces and fitted models for every trace it is
// asked about (see serve/service.h); responses are byte-identical to
// the equivalent `dre_eval <trace> <policy> --model M [--ci N] --seed S`
// run. SIGINT/SIGTERM shut down gracefully: the listener closes, every
// queued job drains and its waiters get their reply, then the process
// exits 0.
//
// Exit codes: 0 success (including signal-driven shutdown), 2 bad
// arguments, 3 startup failure (bind/listen).
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "cli_flags.h"

#include "core/checkpoint.h"
#include "fault/fault.h"
#include "obs/obs.h"
#include "serve/server.h"

namespace {

std::atomic<bool> g_stop{false};

extern "C" void handle_stop_signal(int) { g_stop.store(true); }

int usage() {
    std::fprintf(stderr,
                 "usage: dre_serve [--port N] [--port-file F] [--max-queue N]\n"
                 "                 [--brownout-watermark N] "
                 "[--brownout-coverage X] [--idle-timeout-ms N]\n"
                 "                 [--fault-spec S] [--fault-seed N]\n"
                 "                 [--metrics-port N] [--metrics-port-file F] "
                 "[--journal F]\n"
                 "                 [--journal-threshold-ms X] "
                 "[--trace-out F]\n");
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    using namespace dre;

    serve::ServerOptions options;
    std::string port_file;
    std::string metrics_port_file;
    std::string trace_out;
    std::string fault_spec;
    std::uint64_t fault_seed = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--port" && i + 1 < argc) {
            options.port = tools::parse_flag<std::uint16_t>("--port", argv[++i]);
        } else if (arg == "--port-file" && i + 1 < argc) {
            port_file = argv[++i];
        } else if (arg == "--max-queue" && i + 1 < argc) {
            options.max_queue =
                tools::parse_flag<std::size_t>("--max-queue", argv[++i]);
        } else if (arg == "--brownout-watermark" && i + 1 < argc) {
            options.brownout_watermark = tools::parse_flag<std::size_t>(
                "--brownout-watermark", argv[++i]);
        } else if (arg == "--brownout-coverage" && i + 1 < argc) {
            options.brownout_coverage =
                tools::parse_unit_flag("--brownout-coverage", argv[++i]);
        } else if (arg == "--idle-timeout-ms" && i + 1 < argc) {
            options.idle_timeout_ms = tools::parse_flag<std::uint64_t>(
                "--idle-timeout-ms", argv[++i]);
        } else if (arg == "--fault-spec" && i + 1 < argc) {
            fault_spec = argv[++i];
        } else if (arg == "--fault-seed" && i + 1 < argc) {
            fault_seed =
                tools::parse_flag<std::uint64_t>("--fault-seed", argv[++i]);
        } else if (arg == "--metrics-port" && i + 1 < argc) {
            options.metrics_port =
                tools::parse_flag<std::uint16_t>("--metrics-port", argv[++i]);
        } else if (arg == "--metrics-port-file" && i + 1 < argc) {
            metrics_port_file = argv[++i];
        } else if (arg == "--journal" && i + 1 < argc) {
            options.journal_path = argv[++i];
        } else if (arg == "--journal-threshold-ms" && i + 1 < argc) {
            options.journal_threshold_ms =
                tools::parse_flag<double>("--journal-threshold-ms", argv[++i]);
        } else if (arg == "--trace-out" && i + 1 < argc) {
            trace_out = argv[++i];
        } else {
            std::fprintf(stderr, "error: unknown argument '%s'\n", arg.c_str());
            return usage();
        }
    }

    if (!fault_spec.empty()) {
        // Validate eagerly (a malformed spec is a usage error) and arm the
        // process-wide injector with the chaos schedule's own seed.
        try {
            dre::fault::Injector::global().configure_spec(fault_spec,
                                                          fault_seed);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "error: bad --fault-spec: %s\n", e.what());
            return 2;
        }
#if !DRE_FAULT_ENABLED
        std::fprintf(stderr,
                     "warning: this build has DRE_FAULT_ENABLED=OFF; "
                     "--fault-spec is parsed but no fault will fire\n");
#endif
    }

    if (!trace_out.empty()) {
#if DRE_OBS_ENABLED
        dre::obs::set_trace_enabled(true);
#else
        std::fprintf(stderr,
                     "error: --trace-out requires a DRE_OBS_ENABLED build\n");
        return 3;
#endif
    }

    serve::EvalServer server(options);
    try {
        server.start(); // --metrics-port / --journal refusal lands here
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 3;
    }

    // Written atomically, so a watcher never reads a half-written port.
    try {
        if (!port_file.empty())
            core::write_file_atomically(port_file,
                                        std::to_string(server.port()) + "\n");
        if (!metrics_port_file.empty())
            core::write_file_atomically(
                metrics_port_file,
                std::to_string(server.metrics_port()) + "\n");
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        server.stop_and_join();
        return 3;
    }

    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);

    std::printf("dre_serve listening on 127.0.0.1:%u (max-queue %zu)\n",
                static_cast<unsigned>(server.port()), options.max_queue);
    if (server.metrics_port() != 0)
        std::printf("dre_serve metrics on http://127.0.0.1:%u/metrics\n",
                    static_cast<unsigned>(server.metrics_port()));
    std::fflush(stdout);

    while (!g_stop.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    // Graceful drain: every admitted request is answered before exit.
    server.stop_and_join();
    if (!trace_out.empty()) {
        if (dre::obs::write_chrome_trace_file(trace_out)) {
            std::printf("dre_serve wrote trace to %s\n", trace_out.c_str());
        } else {
            std::fprintf(stderr, "error: cannot write --trace-out %s\n",
                         trace_out.c_str());
        }
    }
    const serve::StatsReplyMsg stats = server.stats_snapshot();
    std::printf("dre_serve shut down: %llu requests (%llu coalesced, "
                "%llu rejected), request p50 %.2f ms p99 %.2f ms\n",
                static_cast<unsigned long long>(stats.requests_total),
                static_cast<unsigned long long>(stats.coalesced),
                static_cast<unsigned long long>(stats.rejected), stats.p50_ms,
                stats.p99_ms);
    if (stats.deadline_exceeded != 0 || stats.shed != 0 ||
        stats.brownout != 0 || stats.sessions_reaped != 0)
        std::printf("dre_serve resilience: %llu deadline-exceeded (%llu shed "
                    "at admission), %llu brownout, %llu sessions reaped\n",
                    static_cast<unsigned long long>(stats.deadline_exceeded),
                    static_cast<unsigned long long>(stats.shed),
                    static_cast<unsigned long long>(stats.brownout),
                    static_cast<unsigned long long>(stats.sessions_reaped));
    return 0;
}
