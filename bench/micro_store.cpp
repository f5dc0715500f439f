// micro_store — dre::store throughput, out-of-core memory bound, and the
// streaming-vs-in-memory determinism contract.
//
// The bench generates a cdn scenario trace in bounded batches straight
// into a sharded .drt set (the full trace is never held in memory during
// ingest), then measures:
//   * ingest MB/s (generation excluded; StoreWriter serialization + CRC +
//     write only),
//   * full-scan MB/s for the mmap and pread backends,
//   * an out-of-core streaming evaluation (pread, 4-group cache) with peak
//     RSS checkpoints before and after — the "larger than the row-group
//     cache" demonstration, and
//   * streaming vs core::Evaluator on the identical reward model: every
//     point estimate and both DR CI endpoints must match bit-for-bit
//     (exit status 1 otherwise).
//
// Fingerprint lines ("FP <name> <%.17g>") cover the streaming estimates so
// CI can byte-diff runs at different DRE_THREADS settings. Results land in
// BENCH_store.json. `--small` shrinks the trace for smoke runs.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench_util.h"
#include "cdn/scenario.h"
#include "simd/simd.h"
#include "core/environment.h"
#include "core/evaluator.h"
#include "core/policy.h"
#include "core/streaming.h"
#include "stats/rng.h"
#include "store/reader.h"
#include "store/sharded.h"
#include "store/writer.h"

using namespace dre;

namespace {

// Peak RSS in MiB (0.0 where getrusage is unavailable). A high-water mark:
// it only ever grows, which is exactly what the checkpoint comparison needs
// — if it did not move across the streaming pass, streaming stayed within
// the footprint already paid for.
double peak_rss_mib() {
#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage {};
    if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
#if defined(__APPLE__)
    return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
#endif
#else
    return 0.0;
#endif
}

double elapsed_ms(const std::chrono::steady_clock::time_point& start) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

bool same_estimate(const char* name, double streaming, double in_memory) {
    if (std::memcmp(&streaming, &in_memory, sizeof(double)) == 0) return true;
    std::printf("MISMATCH %-10s streaming %.17g != in-memory %.17g\n", name,
                streaming, in_memory);
    return false;
}

} // namespace

int main(int argc, char** argv) {
    bool small = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--small") == 0) small = true;

    bench::print_header("micro_store — .drt ingest / scan / out-of-core eval");

    const std::size_t n = small ? 30000 : 400000;
    const std::size_t num_shards = small ? 3 : 4;
    const std::uint32_t row_group_rows = small ? 1024 : 8192;
    const std::size_t fit_sample = small ? 10000 : 50000;
    const int ci_replicates = small ? 200 : 500;
    const std::size_t batch = 10000;

    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "dre_micro_store";
    fs::create_directories(dir);
    const std::string prefix = (dir / "trace-").string();

    // --- Ingest: generate in batches, never holding the full trace --------
    cdn::VideoQualityEnv env{cdn::CdnWorldConfig{}};
    const core::UniformRandomPolicy logging(env.num_decisions());
    stats::Rng gen_rng(20170807);

    double write_ms = 0.0;
    std::uint64_t bytes_written = 0;
    {
        std::vector<std::unique_ptr<store::StoreWriter>> writers;
        // Probe the schema from one tuple so the bench follows the scenario.
        Trace probe = core::collect_trace(env, logging, 1, gen_rng);
        const store::StoreSchema probed{
            static_cast<std::uint32_t>(probe[0].context.numeric_dims()),
            static_cast<std::uint32_t>(probe[0].context.categorical_dims())};
        for (std::size_t s = 0; s < num_shards; ++s) {
            char suffix[16];
            std::snprintf(suffix, sizeof(suffix), "%05zu.drt", s);
            writers.push_back(std::make_unique<store::StoreWriter>(
                prefix + suffix, probed,
                store::StoreWriter::Options{row_group_rows}));
        }
        writers[0]->append(probe[0]);
        std::uint64_t written = 1;
        while (written < n) {
            const std::size_t count =
                static_cast<std::size_t>(std::min<std::uint64_t>(batch, n - written));
            const Trace chunk = core::collect_trace(env, logging, count, gen_rng);
            // Shards get contiguous global ranges, like split_store.
            const auto start = std::chrono::steady_clock::now();
            for (std::size_t i = 0; i < chunk.size(); ++i) {
                const std::uint64_t row = written + i;
                const std::size_t shard =
                    static_cast<std::size_t>(row * num_shards / n);
                writers[std::min(shard, num_shards - 1)]->append(chunk[i]);
            }
            write_ms += elapsed_ms(start);
            written += count;
        }
        const auto start = std::chrono::steady_clock::now();
        for (auto& w : writers) w->finalize();
        write_ms += elapsed_ms(start);
        for (const auto& w : writers)
            bytes_written += fs::file_size(w->path());
    }
    const double mib = static_cast<double>(bytes_written) / (1024.0 * 1024.0);
    const double ingest_mib_s = mib / (write_ms / 1000.0);
    std::printf("ingest   %zu rows -> %zu shards, %.1f MiB in %.1f ms (%.0f MiB/s)\n",
                n, num_shards, mib, write_ms, ingest_mib_s);
    const double rss_after_ingest = peak_rss_mib();

    // --- Scan: mmap vs pread ---------------------------------------------
    const std::vector<std::string> shard_paths = store::find_shards(prefix);
    double scan_ms[2] = {0.0, 0.0};
    const store::IoMode modes[2] = {store::IoMode::kMmap, store::IoMode::kPread};
    const char* mode_names[2] = {"mmap", "pread"};
    for (int m = 0; m < 2; ++m) {
        store::StoreReader::Options reader_options;
        reader_options.io_mode = modes[m];
        reader_options.pread_cache_groups = 4;
        const store::ShardedStore shards(shard_paths, reader_options);
        std::vector<LoggedTuple> rows;
        const auto start = std::chrono::steady_clock::now();
        for (std::uint64_t row = 0; row < shards.num_tuples(); row += batch) {
            const std::uint64_t count =
                std::min<std::uint64_t>(batch, shards.num_tuples() - row);
            shards.read_rows(row, count, rows);
        }
        scan_ms[m] = elapsed_ms(start);
        std::printf("scan     %-5s %.1f ms (%.0f MiB/s)\n", mode_names[m],
                    scan_ms[m], mib / (scan_ms[m] / 1000.0));
    }

    // --- CRC-32C: software slicing-by-8 vs dispatched hardware ------------
    // Every row group the store writes or verifies pays this checksum, so
    // the kernel-level throughput gap shows up directly in ingest/scan. The
    // two implementations must agree exactly (the store's on-disk format
    // depends on it).
    const std::size_t crc_bytes = (small ? 8 : 64) * std::size_t{1024} * 1024;
    std::vector<unsigned char> crc_buf(crc_bytes);
    for (std::size_t i = 0; i < crc_bytes; ++i)
        crc_buf[i] = static_cast<unsigned char>((i * 131) ^ (i >> 11));
    const simd::Ops& sw_ops = simd::ops_for(simd::Level::kScalar);
    const simd::Ops& hw_ops = simd::ops(); // dispatched (may still be scalar)
    std::uint32_t crc_sw = 0, crc_hw = 0;
    double crc_sw_ms = 0.0, crc_hw_ms = 0.0;
    for (int rep = 0; rep < 3; ++rep) { // interleaved min-of-3
        auto start = std::chrono::steady_clock::now();
        crc_sw = sw_ops.crc32c(crc_buf.data(), crc_bytes, 0);
        const double sw_ms = elapsed_ms(start);
        start = std::chrono::steady_clock::now();
        crc_hw = hw_ops.crc32c(crc_buf.data(), crc_bytes, 0);
        const double hw_ms = elapsed_ms(start);
        if (rep == 0 || sw_ms < crc_sw_ms) crc_sw_ms = sw_ms;
        if (rep == 0 || hw_ms < crc_hw_ms) crc_hw_ms = hw_ms;
    }
    const double crc_mib = static_cast<double>(crc_bytes) / (1024.0 * 1024.0);
    const bool crc_identical = crc_sw == crc_hw;
    std::printf("crc32c   software %.0f MiB/s   %s %.0f MiB/s   speedup %.2fx   %s\n",
                crc_mib / (crc_sw_ms / 1000.0),
                simd::level_name(simd::active_level()),
                crc_mib / (crc_hw_ms / 1000.0), crc_sw_ms / crc_hw_ms,
                crc_identical ? "identical" : "CHECKSUMS DIFFER (BUG)");

    // --- Out-of-core streaming evaluation (pread, bounded cache) ----------
    // The full trace is NOT in memory here: the model fits on a bounded
    // prefix and the evaluation streams row groups through a 4-group LRU.
    store::StoreReader::Options reader_options;
    reader_options.io_mode = store::IoMode::kPread;
    reader_options.pread_cache_groups = 4;
    const store::ShardedStore shards(shard_paths, reader_options);
    const std::size_t decisions = shards.num_decisions();
    const core::UniformRandomPolicy policy(decisions);

    std::unique_ptr<core::RewardModel> bounded_model;
    {
        std::vector<LoggedTuple> head;
        shards.read_rows(0, std::min<std::uint64_t>(fit_sample, n), head);
        const Trace fit_trace(std::move(head));
        bounded_model = core::fit_reward_model(core::RewardModelKind::kTabular,
                                               decisions, fit_trace);
    }
    core::StreamingOptions stream_options;
    stream_options.ci_replicates = ci_replicates;
    const store::StoreTupleSource source(shards);

    const auto stream_start = std::chrono::steady_clock::now();
    const core::PolicyEvaluation outofcore = core::evaluate_streaming(
        source, *bounded_model, policy, stream_options, stats::Rng(99));
    const double outofcore_ms = elapsed_ms(stream_start);
    const double rss_after_streaming = peak_rss_mib();
    std::printf("stream   out-of-core eval %.1f ms  DR %.6f  peak RSS %.1f MiB "
                "(+%.1f MiB over post-ingest)\n",
                outofcore_ms, outofcore.dr.value, rss_after_streaming,
                rss_after_streaming - rss_after_ingest);

    // --- In-memory reference & determinism contract -----------------------
    // Same tuples, same reward model: the streaming result must match the
    // Evaluator bit-for-bit (point estimates and both DR CI endpoints).
    Trace full_trace = shards.read_all();
    core::EvaluationConfig config;
    config.ci_replicates = ci_replicates;
    const core::Evaluator evaluator(std::move(full_trace), config,
                                    stats::Rng(99));

    const auto mem_start = std::chrono::steady_clock::now();
    const core::PolicyEvaluation in_memory = evaluator.evaluate(policy);
    const double in_memory_ms = elapsed_ms(mem_start);
    const double rss_after_inmemory = peak_rss_mib();

    const core::PolicyEvaluation streamed = core::evaluate_streaming(
        source, evaluator.reward_model(), policy, stream_options,
        stats::Rng(99));
    bool identical = true;
    identical &= same_estimate("DM", streamed.dm.value, in_memory.dm.value);
    identical &= same_estimate("IPS", streamed.ips.value, in_memory.ips.value);
    identical &= same_estimate("SNIPS", streamed.snips.value,
                               in_memory.snips.value);
    identical &= same_estimate("DR", streamed.dr.value, in_memory.dr.value);
    identical &= same_estimate("SWITCH-DR", streamed.switch_dr.value,
                               in_memory.switch_dr.value);
    identical &= same_estimate("DR CI lo", streamed.dr_ci->lower,
                               in_memory.dr_ci->lower);
    identical &= same_estimate("DR CI hi", streamed.dr_ci->upper,
                               in_memory.dr_ci->upper);
    std::printf("eval     in-memory %.1f ms   streaming %.1f ms   overhead %.2fx   %s\n",
                in_memory_ms, outofcore_ms, outofcore_ms / in_memory_ms,
                identical ? "bit-identical" : "OUTPUTS DIFFER (BUG)");
    std::printf("rss      post-ingest %.1f MiB   post-streaming %.1f MiB   "
                "post-in-memory %.1f MiB\n",
                rss_after_ingest, rss_after_streaming, rss_after_inmemory);

    // Fingerprint of the streaming estimates — byte-diffed across
    // DRE_THREADS settings by CI.
    std::printf("FP DM %.17g\n", streamed.dm.value);
    std::printf("FP IPS %.17g\n", streamed.ips.value);
    std::printf("FP SNIPS %.17g\n", streamed.snips.value);
    std::printf("FP DR %.17g\n", streamed.dr.value);
    std::printf("FP SWITCH-DR %.17g\n", streamed.switch_dr.value);
    std::printf("FP DR-CI %.17g %.17g\n", streamed.dr_ci->lower,
                streamed.dr_ci->upper);
    std::printf("FP OOC-DR %.17g\n", outofcore.dr.value);

    // --- Hardened streaming overhead --------------------------------------
    // Same clean trace through evaluate_streaming_guarded in quarantine
    // mode: per-tuple validation plus quarantine bookkeeping must stay
    // cheap, and on clean data the result must match strict streaming
    // bit for bit (with nothing quarantined).
    core::StreamingOptions guarded_options = stream_options;
    guarded_options.on_error = core::FailureMode::kQuarantine;
    const auto guarded_start = std::chrono::steady_clock::now();
    const core::StreamingResult guarded = core::evaluate_streaming_guarded(
        source, evaluator.reward_model(), policy, guarded_options,
        stats::Rng(99));
    const double guarded_ms = elapsed_ms(guarded_start);
    bool guarded_identical =
        guarded.quarantine.empty() &&
        same_estimate("guarded DR", guarded.evaluation.dr.value,
                      streamed.dr.value) &&
        same_estimate("guarded DR CI lo", guarded.evaluation.dr_ci->lower,
                      streamed.dr_ci->lower) &&
        same_estimate("guarded DR CI hi", guarded.evaluation.dr_ci->upper,
                      streamed.dr_ci->upper);
    std::printf("guard    quarantine-mode streaming %.1f ms   overhead %.2fx "
                "vs strict   %s\n",
                guarded_ms, guarded_ms / outofcore_ms,
                guarded_identical ? "bit-identical, 0 quarantined"
                                  : "OUTPUTS DIFFER (BUG)");
    identical &= guarded_identical;

    obs::Report report =
        bench::make_bench_report("micro_store", small ? "small" : "full");
    report.set("ingest", "rows", static_cast<std::uint64_t>(n));
    report.set("ingest", "shards", static_cast<std::uint64_t>(num_shards));
    report.set("ingest", "bytes", bytes_written);
    report.set("ingest", "ms", write_ms);
    report.set("ingest", "mib_per_s", ingest_mib_s);
    report.set("scan", "mmap_ms", scan_ms[0]);
    report.set("scan", "mmap_mib_per_s", mib / (scan_ms[0] / 1000.0));
    report.set("scan", "pread_ms", scan_ms[1]);
    report.set("scan", "pread_mib_per_s", mib / (scan_ms[1] / 1000.0));
    report.set("crc32c", "bytes", static_cast<std::uint64_t>(crc_bytes));
    report.set("crc32c", "software_mib_per_s", crc_mib / (crc_sw_ms / 1000.0));
    report.set("crc32c", "hardware_mib_per_s", crc_mib / (crc_hw_ms / 1000.0));
    report.set("crc32c", "speedup", crc_sw_ms / crc_hw_ms);
    report.set("crc32c", "identical", crc_identical);
    report.set("eval", "streaming_ms", outofcore_ms);
    report.set("eval", "in_memory_ms", in_memory_ms);
    report.set("eval", "streaming_overhead", outofcore_ms / in_memory_ms);
    report.set("eval", "guarded_ms", guarded_ms);
    report.set("eval", "guarded_overhead", guarded_ms / outofcore_ms);
    report.set("eval", "bit_identical", identical);
    report.set("rss", "after_ingest_mib", rss_after_ingest);
    report.set("rss", "after_streaming_mib", rss_after_streaming);
    report.set("rss", "streaming_delta_mib",
               rss_after_streaming - rss_after_ingest);
    report.set("rss", "after_in_memory_mib", rss_after_inmemory);
    bench::write_bench_json(std::move(report), "BENCH_store.json");

    std::error_code ec;
    fs::remove_all(dir, ec);
    return identical && crc_identical ? 0 : 1;
}
