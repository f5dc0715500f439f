// perfbench — the repository benchmark's measuring program. run.py builds
// it, generates each run's input with `prepare`, measures with `run`, and
// turns the result into the benchmark's JSON line.
//
//   perfbench prepare --n N --seed S --out PREFIX
//       simulate N cdn-world tuples (12 decisions, uniform logging) from
//       seed S and write them as 4 .drt shards PREFIX00000.drt ...
//
//   perfbench run --workload eval_batch|eval_stream|serve_open --seed S
//                 --seconds T --trace 0|1 --data PREFIX --out DIR
//                 [--git DESCRIBE]
//       measure one workload for T seconds on the shards at PREFIX. Prints
//       the host stamp and per-phase lines, then one JSON object (the
//       end-to-end metrics, or with --trace 1 the per-layer ledger) as the
//       last line. Exit 0 when every output was right, 1 when one was
//       wrong, 2 on bad arguments or a build that must not be measured.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "cdn/scenario.h"
#include "core/environment.h"
#include "core/parallel.h"
#include "core/policy.h"
#include "obs/span.h"
#include "simd/simd.h"
#include "store/writer.h"
#include "workloads.h"

using namespace dre;
using namespace perfbench;

namespace {

constexpr std::size_t kShards = 4;

[[noreturn]] void usage() {
    std::fprintf(stderr,
                 "usage: perfbench prepare --n N --seed S --out PREFIX\n"
                 "       perfbench run --workload W --seed S --seconds T "
                 "--trace 0|1 --data PREFIX --out DIR [--git DESCRIBE]\n");
    std::exit(2);
}

int prepare(std::uint64_t n, std::uint64_t seed, const std::string& prefix) {
    cdn::VideoQualityEnv env{cdn::CdnWorldConfig{}};
    core::UniformRandomPolicy logging(env.num_decisions());
    stats::Rng rng(seed);
    const Trace trace = core::collect_trace(env, logging, n, rng);
    const store::StoreSchema schema{
        static_cast<std::uint32_t>(trace[0].context.numeric_dims()),
        static_cast<std::uint32_t>(trace[0].context.categorical_dims())};
    for (std::size_t s = 0; s < kShards; ++s) {
        char suffix[16];
        std::snprintf(suffix, sizeof(suffix), "%05zu.drt", s);
        store::StoreWriter writer(prefix + suffix, schema);
        for (std::uint64_t r = n * s / kShards; r < n * (s + 1) / kShards; ++r)
            writer.append(trace[static_cast<std::size_t>(r)]);
        writer.finalize();
    }
    std::printf("wrote %llu tuples (%zu decisions) as %zu shards at %s\n",
                static_cast<unsigned long long>(n), trace.num_decisions(),
                kShards, prefix.c_str());
    return 0;
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos) return line.substr(colon + 2);
        }
    }
    return "unknown";
}

std::string affinity() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return "unknown";
    std::string cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (!CPU_ISSET(c, &set)) continue;
        if (!cpus.empty()) cpus += ",";
        cpus += std::to_string(c);
    }
    return cpus;
}

// A Debug or sanitizer build measures the instrumentation, not the code.
bool measurable_build(std::string& why) {
#if !defined(NDEBUG)
    why = "assertions are on (NDEBUG unset)";
    return false;
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    why = "built with a sanitizer";
    return false;
#else
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0) {
        why = "Debug build";
        return false;
    }
    if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr ||
        std::strstr(PERFBENCH_CXX_FLAGS, "-O0") != nullptr) {
        why = std::string("compiled with \"") + PERFBENCH_CXX_FLAGS + "\"";
        return false;
    }
    return true;
#endif
}

void print_host(const std::string& git) {
    const char* threads = std::getenv("DRE_THREADS");
    std::printf("host: %zu usable cpus (affinity %s), cpu \"%s\"\n",
                par::available_cpus(), affinity().c_str(), cpu_model().c_str());
    std::printf("host: isa detected %s, active %s\n",
                simd::level_name(simd::detected_level()),
                simd::level_name(simd::active_level()));
    std::printf("build: g++ %s, %s (%s), DRE_THREADS=%s (pool %zu threads), "
                "source %s\n",
                __VERSION__, PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
                threads != nullptr ? threads : "unset", par::thread_count(),
                git.c_str());
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) usage();
    const std::string command = argv[1];
    Options opts;
    std::uint64_t n = 0;
    std::string out, git = "unknown";
    try {
        for (int i = 2; i < argc; ++i) {
            const std::string arg = argv[i];
            if (i + 1 >= argc) usage();
            const std::string value = argv[++i];
            if (arg == "--n") n = std::stoull(value);
            else if (arg == "--seed") opts.seed = std::stoull(value);
            else if (arg == "--out") out = value;
            else if (arg == "--workload") opts.workload = value;
            else if (arg == "--seconds") opts.seconds = std::stod(value);
            else if (arg == "--trace") opts.trace = value == "1";
            else if (arg == "--data") opts.data = value;
            else if (arg == "--git") git = value;
            else usage();
        }
    } catch (const std::exception&) {
        usage();
    }

    if (command == "prepare") {
        if (n == 0 || out.empty()) usage();
        return prepare(n, opts.seed, out);
    }
    if (command != "run" || opts.data.empty() || out.empty() ||
        opts.seconds <= 0.0)
        usage();
    opts.out_dir = out;

    std::string why;
    if (!measurable_build(why)) {
        std::fprintf(stderr, "perfbench: refusing to report: %s\n",
                     why.c_str());
        return 2;
    }
    print_host(git);

    Results results;
    SpanLog spans(opts.trace);
    try {
        if (opts.workload == "eval_batch") {
            run_eval_batch(opts, results, spans);
        } else if (opts.workload == "eval_stream") {
            run_eval_stream(opts, results, spans);
        } else if (opts.workload == "serve_open") {
            run_serve_open(opts, results, spans);
        } else {
            std::fprintf(stderr, "perfbench: unknown workload %s\n",
                         opts.workload.c_str());
            return 2;
        }
    } catch (const std::exception& e) {
        results.failed(std::string("exception: ") + e.what());
    }
    if (opts.trace) {
        const std::string path = opts.out_dir + "/trace.json";
        if (obs::write_chrome_trace_file(path))
            std::printf("chrome trace: %s\n", path.c_str());
        else
            results.failed("cannot write " + path);
    }
    std::printf("%s\n", results.json().c_str());
    return results.correct() ? 0 : 1;
}
