// ShardedStore — one logical trace over a set of .drt shard files.
//
// A shard set is just N .drt files with identical schemas; the global
// tuple ordering is *shard-index-major* (all of shard 0, then all of shard
// 1, …) with shards ordered lexicographically by path — deterministic for
// a given file set, independent of directory enumeration order. A single
// .drt file is the trivial one-shard case, so every consumer (dre_eval,
// streaming evaluation, the convert utilities) handles both uniformly.
//
// Because evaluate_streaming addresses tuples by global index and its
// reduction chunks are fixed by par::kReduceChunk, re-sharding a trace
// (split/concat below) never changes any estimate — see core/streaming.h.
#ifndef DRE_STORE_SHARDED_H
#define DRE_STORE_SHARDED_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/streaming.h"
#include "store/reader.h"
#include "store/writer.h"
#include "trace/trace.h"

namespace dre::store {

class ShardedStore {
public:
    // Opens every path as a shard, in lexicographic path order. Throws if
    // the list is empty, a file fails validation, or schemas disagree.
    explicit ShardedStore(std::vector<std::string> paths);

    std::size_t num_shards() const noexcept { return shards_.size(); }
    const StoreReader& shard(std::size_t i) const { return *shards_.at(i); }
    StoreSchema schema() const noexcept;
    // Max over shards (each shard header records its own decision count).
    std::size_t num_decisions() const noexcept;
    std::uint64_t num_tuples() const noexcept;
    // Global row of the first tuple in shard i (prefix sums, size n+1).
    std::uint64_t shard_row_offset(std::size_t i) const {
        return row_offset_.at(i);
    }

    // Appends tuples [begin, begin + count) in global order to `out`
    // (cleared first), crossing shard boundaries as needed. Thread-safe.
    // With `failures` null the first unreadable row group throws; otherwise
    // each one's intersection with the range is recorded in `failures` (in
    // global row order, begin/count in global coordinates, shard filled)
    // and its tuples are skipped. Transient faults are retried first.
    void read_rows(std::uint64_t begin, std::uint64_t count,
                   std::vector<LoggedTuple>& out,
                   std::vector<TupleReadFailure>* failures = nullptr) const;

    Trace read_all() const;

private:
    std::vector<std::unique_ptr<StoreReader>> shards_;
    std::vector<std::uint64_t> row_offset_;
};

// core::TupleSource over a sharded store: the adapter that feeds
// evaluate_streaming from disk. Reference semantics — the store must
// outlive the source.
class StoreTupleSource final : public core::TupleSource {
public:
    explicit StoreTupleSource(const ShardedStore& store) : store_(&store) {}
    std::uint64_t num_tuples() const override { return store_->num_tuples(); }
    std::size_t num_decisions() const override {
        return store_->num_decisions();
    }
    // Sub-range recovery: with `failures` set, damaged row groups become
    // entries (with the shard attributed) instead of aborting the chunk.
    void read(std::uint64_t begin, std::uint64_t count,
              std::vector<LoggedTuple>& out,
              std::vector<TupleReadFailure>* failures) const override {
        store_->read_rows(begin, count, out, failures);
    }
    // Strict read, the `failures == nullptr` case (perfbench's store probe
    // reads through it).
    void read(std::uint64_t begin, std::uint64_t count,
              std::vector<LoggedTuple>& out) const {
        store_->read_rows(begin, count, out);
    }

private:
    const ShardedStore* store_;
};

// All files matching `<prefix>*.drt` in prefix's directory, sorted
// lexicographically (e.g. prefix "out/trace-" matches out/trace-00001.drt).
// Returns an empty vector when nothing matches.
std::vector<std::string> find_shards(const std::string& prefix);

// The shards a trace argument names: a path ending in .drt is one shard,
// anything else a prefix for find_shards. Throws std::runtime_error when a
// prefix matches nothing.
std::vector<std::string> resolve_shards(const std::string& path);

// Reads a whole trace from a trace argument: a path ending in .csv is CSV,
// anything else is opened through resolve_shards. The store is closed (and
// unmapped) before this returns.
Trace load_trace(const std::string& path);

// Rewrites `in` as `num_shards` balanced shards named
// `<out_prefix>NNNNN.drt` (zero-padded shard index). Streams row-group
// sized batches — memory stays bounded regardless of trace size. Returns
// the shard paths in shard order.
std::vector<std::string> split_store(const ShardedStore& in,
                                     const std::string& out_prefix,
                                     std::size_t num_shards,
                                     StoreWriter::Options options = {});

// Concatenates `in` (in global order) into a single .drt file, streaming.
void concat_stores(const ShardedStore& in, const std::string& out_path,
                   StoreWriter::Options options = {});

} // namespace dre::store

#endif // DRE_STORE_SHARDED_H
