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
// Telemetry (DESIGN.md §13):
//   --metrics-port <n>        serve GET /metrics (OpenMetrics text) and
//                             GET /healthz on 127.0.0.1:<n> (0 = kernel-
//                             assigned; discover via --metrics-port-file)
//   --metrics-port-file <f>   write the bound metrics port once listening
//   --journal <f>             append a JSONL record per answered request
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
// writes --trace-out and exits.
//
// Exit codes: 0 success (including signal-driven shutdown), 2 bad
// arguments (a malformed --fault-spec included), 3 an I/O failure: at
// startup (bind, listen, an unopenable --journal, an unwritable port file)
// or, after the drain, an unwritable --trace-out; 4 anything else.
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
                 "                 [--trace-out F]\n");
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
        if (arg == "--port") {
            options.port = tools::parse_flag<std::uint16_t>(
                "--port", tools::flag_value(argc, argv, i, "--port"));
        } else if (arg == "--port-file") {
            port_file = tools::flag_value(argc, argv, i, "--port-file");
        } else if (arg == "--max-queue") {
            options.max_queue = tools::parse_flag<std::size_t>(
                "--max-queue", tools::flag_value(argc, argv, i, "--max-queue"));
        } else if (arg == "--brownout-watermark") {
            options.brownout_watermark = tools::parse_flag<std::size_t>(
                "--brownout-watermark",
                tools::flag_value(argc, argv, i, "--brownout-watermark"));
        } else if (arg == "--brownout-coverage") {
            options.brownout_coverage = tools::parse_unit_flag(
                "--brownout-coverage",
                tools::flag_value(argc, argv, i, "--brownout-coverage"));
        } else if (arg == "--idle-timeout-ms") {
            options.idle_timeout_ms = tools::parse_flag<std::uint64_t>(
                "--idle-timeout-ms",
                tools::flag_value(argc, argv, i, "--idle-timeout-ms"));
        } else if (arg == "--fault-spec") {
            fault_spec = tools::flag_value(argc, argv, i, "--fault-spec");
        } else if (arg == "--fault-seed") {
            fault_seed = tools::parse_flag<std::uint64_t>(
                "--fault-seed",
                tools::flag_value(argc, argv, i, "--fault-seed"));
        } else if (arg == "--metrics-port") {
            options.metrics_port = tools::parse_flag<std::uint16_t>(
                "--metrics-port",
                tools::flag_value(argc, argv, i, "--metrics-port"));
        } else if (arg == "--metrics-port-file") {
            metrics_port_file =
                tools::flag_value(argc, argv, i, "--metrics-port-file");
        } else if (arg == "--journal") {
            options.journal_path =
                tools::flag_value(argc, argv, i, "--journal");
        } else if (arg == "--trace-out") {
            trace_out = tools::flag_value(argc, argv, i, "--trace-out");
        } else {
            std::fprintf(stderr, "error: unknown argument '%s'\n", arg.c_str());
            return usage();
        }
    }

    if (!trace_out.empty()) obs::set_trace_enabled(true);

    serve::EvalServer server(options);
    try {
        // Validate eagerly (a malformed spec is a usage error) and arm the
        // process-wide injector with the chaos schedule's own seed.
        if (!fault_spec.empty())
            fault::Injector::global().configure_spec(fault_spec, fault_seed);
        server.start();
        // Written atomically, so a watcher never reads a half-written port.
        if (!port_file.empty())
            core::write_file_atomically(port_file,
                                        std::to_string(server.port()) + "\n");
        if (!metrics_port_file.empty())
            core::write_file_atomically(
                metrics_port_file,
                std::to_string(server.metrics_port()) + "\n");
    } catch (const std::exception& e) {
        return tools::report_error(e); // ~EvalServer stops a started server
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
    if (!trace_out.empty()) {
        if (!dre::obs::write_chrome_trace_file(trace_out))
            return tools::report_error(
                std::runtime_error("cannot write --trace-out " + trace_out));
        std::printf("dre_serve wrote trace to %s\n", trace_out.c_str());
    }
    return 0;
}
