#include "store/sharded.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "trace/csv.h"

namespace dre::store {

ShardedStore::ShardedStore(std::vector<std::string> paths) {
    if (paths.empty())
        throw std::invalid_argument("ShardedStore: empty shard list");
    std::sort(paths.begin(), paths.end());
    shards_.reserve(paths.size());
    row_offset_.reserve(paths.size() + 1);
    row_offset_.push_back(0);
    // Fault-point indices are global across the shard set (shard index for
    // store.open, cumulative row-group id for store.read/store.crc), so a
    // seeded schedule addresses "the 7th row group of the logical trace"
    // regardless of how it is sharded or which thread touches it.
    StoreReader::Options options;
    for (const std::string& path : paths) {
        options.fault_shard_index = shards_.size();
        auto reader = std::make_unique<StoreReader>(path, options);
        options.fault_group_offset += reader->num_row_groups();
        if (!shards_.empty() && !(reader->schema() == shards_[0]->schema()))
            throw std::runtime_error(
                "ShardedStore: shard " + path + " schema (" +
                std::to_string(reader->schema().numeric_dims) + " numeric, " +
                std::to_string(reader->schema().categorical_dims) +
                " categorical) does not match shard " + shards_[0]->path());
        row_offset_.push_back(row_offset_.back() + reader->num_tuples());
        shards_.push_back(std::move(reader));
    }
}

StoreSchema ShardedStore::schema() const noexcept {
    return shards_[0]->schema();
}

std::size_t ShardedStore::num_decisions() const noexcept {
    std::size_t decisions = 0;
    for (const auto& shard : shards_)
        decisions = std::max(decisions, shard->num_decisions());
    return decisions;
}

std::uint64_t ShardedStore::num_tuples() const noexcept {
    return row_offset_.back();
}

void ShardedStore::read_rows(std::uint64_t begin, std::uint64_t count,
                             std::vector<LoggedTuple>& out,
                             std::vector<ReadFailure>* failures) const {
    out.clear();
    if (begin + count > num_tuples())
        throw std::out_of_range(
            "ShardedStore: read_rows range [" + std::to_string(begin) + ", " +
            std::to_string(begin + count) + ") exceeds " +
            std::to_string(num_tuples()) + " tuples");
    if (count == 0) return;
    out.reserve(count);
    const auto it =
        std::upper_bound(row_offset_.begin(), row_offset_.end(), begin);
    std::size_t s = static_cast<std::size_t>(it - row_offset_.begin()) - 1;
    const std::uint64_t end = begin + count;
    for (std::uint64_t row = begin; row < end; ++s) {
        const std::uint64_t shard_begin = row_offset_[s];
        const std::uint64_t local_begin = row - shard_begin;
        const std::uint64_t local_end =
            std::min<std::uint64_t>(end - shard_begin,
                                    shards_[s]->num_tuples());
        row = shard_begin + local_end;
        const std::size_t first_failure = failures ? failures->size() : 0;
        shards_[s]->append_rows(local_begin, local_end - local_begin, out,
                                failures);
        if (failures != nullptr) {
            for (std::size_t f = first_failure; f < failures->size(); ++f) {
                (*failures)[f].begin += shard_begin; // shard-local -> global
                (*failures)[f].shard = static_cast<std::int64_t>(s);
            }
        }
    }
}

Trace ShardedStore::read_all() const {
    std::vector<LoggedTuple> tuples;
    read_rows(0, num_tuples(), tuples);
    return Trace(std::move(tuples));
}

std::vector<std::string> find_shards(const std::string& prefix) {
    namespace fs = std::filesystem;
    const fs::path prefix_path(prefix);
    fs::path dir = prefix_path.parent_path();
    if (dir.empty()) dir = ".";
    const std::string stem = prefix_path.filename().string();
    std::vector<std::string> shards;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
        if (!entry.is_regular_file()) continue;
        const std::string name = entry.path().filename().string();
        if (name.size() < stem.size() + 4) continue;
        if (name.compare(0, stem.size(), stem) != 0) continue;
        if (name.compare(name.size() - 4, 4, ".drt") != 0) continue;
        shards.push_back((dir / name).string());
    }
    std::sort(shards.begin(), shards.end());
    return shards;
}

std::vector<std::string> resolve_shards(const std::string& path) {
    if (path.ends_with(".drt")) return {path};
    std::vector<std::string> shards = find_shards(path);
    if (shards.empty())
        throw std::runtime_error("no .drt shards match prefix " + path);
    return shards;
}

Trace load_trace(const std::string& path) {
    if (path.ends_with(".csv")) return read_csv_file(path);
    return ShardedStore(resolve_shards(path)).read_all();
}

namespace {

// Streams rows [begin, end) of `in` into `writer` in bounded batches.
void copy_rows(const ShardedStore& in, StoreWriter& writer,
               std::uint64_t begin, std::uint64_t end) {
    constexpr std::uint64_t kBatch = 16384;
    std::vector<LoggedTuple> batch;
    for (std::uint64_t row = begin; row < end; row += kBatch) {
        const std::uint64_t count = std::min(kBatch, end - row);
        in.read_rows(row, count, batch);
        for (const LoggedTuple& t : batch) writer.append(t);
    }
}

} // namespace

std::vector<std::string> split_store(const ShardedStore& in,
                                     const std::string& out_prefix,
                                     std::size_t num_shards,
                                     StoreWriter::Options options) {
    if (num_shards == 0)
        throw std::invalid_argument("split_store: need >= 1 output shard");
    const std::uint64_t n = in.num_tuples();
    std::vector<std::string> paths;
    paths.reserve(num_shards);
    for (std::size_t s = 0; s < num_shards; ++s) {
        char suffix[32]; // "%05zu" of a size_t is up to 20 digits
        std::snprintf(suffix, sizeof(suffix), "%05zu.drt", s);
        const std::string path = out_prefix + suffix;
        const std::uint64_t begin = n * s / num_shards;
        const std::uint64_t end = n * (s + 1) / num_shards;
        StoreWriter writer(path, in.schema(), options);
        copy_rows(in, writer, begin, end);
        writer.finalize();
        paths.push_back(path);
    }
    return paths;
}

void concat_stores(const ShardedStore& in, const std::string& out_path,
                   StoreWriter::Options options) {
    StoreWriter writer(out_path, in.schema(), options);
    copy_rows(in, writer, 0, in.num_tuples());
    writer.finalize();
}

} // namespace dre::store
