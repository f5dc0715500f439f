#include "serve/journal.h"

#include <chrono>
#include <cinttypes>

#include "obs/report.h"

namespace dre::serve {
namespace {

std::uint64_t wall_ms_now() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

std::string hex_id(std::uint64_t id) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%" PRIx64, id);
    return buf;
}

} // namespace

std::string journal_line_json(const JournalRecord& record,
                              std::uint64_t ts_ms) {
    std::string out;
    out.reserve(320);
    obs::JsonWriter json(&out);
    json.begin_object();
    json.key("ts_ms");
    json.value(ts_ms);
    json.key("trace_id");
    json.value(std::string_view(hex_id(record.trace_id)));
    json.key("trace");
    json.value(std::string_view(record.trace));
    json.key("policy");
    json.value(std::string_view(record.policy));
    json.key("model");
    json.value(std::string_view(record.model));
    json.key("seed");
    json.value(record.seed);
    json.key("ci");
    json.value(static_cast<std::uint64_t>(record.ci_replicates));
    json.key("outcome");
    json.value(std::string_view(record.error_code.empty() ? "ok" : "error"));
    json.key("error_code");
    json.value(std::string_view(record.error_code));
    json.key("error");
    json.value(std::string_view(record.error));
    json.key("total_ms");
    json.value(record.total_ms);
    json.key("queue_ms");
    json.value(record.queue_ms);
    json.key("cache_ms");
    json.value(record.cache_ms);
    json.key("compute_ms");
    json.value(record.compute_ms);
    json.key("serialize_ms");
    json.value(record.serialize_ms);
    json.key("trace_hit");
    json.value(record.trace_hit);
    json.key("policy_hit");
    json.value(record.policy_hit);
    json.key("evaluator_hit");
    json.value(record.evaluator_hit);
    json.key("coalesced");
    json.value(record.coalesced);
    json.key("degraded");
    json.value(record.degraded);
    json.key("waiters");
    json.value(record.waiters);
    json.end_object();
    return out;
}

RequestJournal::RequestJournal(const std::string& path)
    : file_(std::fopen(path.c_str(), "a")) {}

RequestJournal::~RequestJournal() {
    if (file_ != nullptr) std::fclose(file_);
}

void RequestJournal::log(const JournalRecord& record) {
    if (file_ == nullptr) return;
    const std::string line = journal_line_json(record, wall_ms_now());
    std::lock_guard<std::mutex> lock(mutex_);
    std::fwrite(line.data(), 1, line.size(), file_);
    std::fputc('\n', file_);
    std::fflush(file_);
    lines_.fetch_add(1, std::memory_order_relaxed);
}

} // namespace dre::serve
