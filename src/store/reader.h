// StoreReader — validating, zero-copy .drt consumer.
//
// Opening a file maps it read-only (the descriptor is closed as soon as
// the mapping exists) and validates the magic, version, endian check,
// tail, and the checksummed footer index up front; row-group payload CRCs
// are validated lazily on first access (and remembered), so opening a
// multi-gigabyte shard is O(footer) while corruption is still always
// caught before any tuple from the damaged group is surfaced. Row groups
// are zero-copy spans into the mapping: scans touch the page cache
// directly and concurrent readers share it. Every validation failure is a
// descriptive StoreError (a std::runtime_error carrying a
// transient/permanent/corruption classification and the row group) naming
// the file — corrupt input is never undefined behavior.
//
// Retries: transient `store.open`/`store.read`/`store.crc` faults get 3
// tries in all, with a *virtual* backoff of 1 ms x 2^attempt between them
// — computed deterministically and recorded in the `store.retries` counter
// and the `store.retry_backoff_ms` histogram, never slept, so hardened
// runs stay bit-reproducible and fast. Permanent and corruption errors are
// thrown immediately.
//
// Fault points (see fault/fault.h): `store.open` keyed by
// `fault_shard_index`, `store.read` and `store.crc` keyed by
// `fault_group_offset + local group id` — ShardedStore fills both so the
// logical index is global across a shard set and the schedule is identical
// for every DRE_THREADS.
#ifndef DRE_STORE_READER_H
#define DRE_STORE_READER_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "store/error.h"
#include "store/format.h"
#include "trace/trace.h"
#include "trace/validate.h"

namespace dre::store {

// Namespace-scope (not nested) so it is complete where constructor default
// arguments need it; spelled StoreReader::Options at call sites.
struct StoreReaderOptions {
    // Logical fault-point indices (see the header comment). Defaults suit
    // a standalone single file; ShardedStore overrides per shard.
    std::uint64_t fault_shard_index = 0;
    std::uint64_t fault_group_offset = 0;
};

class StoreReader {
public:
    using Options = StoreReaderOptions;

    explicit StoreReader(const std::string& path, Options options = {});
    ~StoreReader();
    StoreReader(const StoreReader&) = delete;
    StoreReader& operator=(const StoreReader&) = delete;

    const std::string& path() const noexcept;
    StoreSchema schema() const noexcept;
    std::size_t num_decisions() const noexcept;
    std::uint64_t num_tuples() const noexcept;
    std::size_t num_row_groups() const noexcept;
    RowGroupInfo row_group_info(std::size_t group) const;

    // CRC-validated view of one row group; its spans alias the mapping and
    // stay valid for the reader's lifetime. Thread-safe; throws StoreError
    // naming the group on checksum mismatch (kCorruption) or a fault that
    // survived the retries.
    RowGroupView row_group(std::size_t group) const;

private:
    // A single file is read as the one-shard case of ShardedStore.
    friend class ShardedStore;

    // Appends `count` tuples starting at file row `begin` to the end of
    // `out`, decoding each row group straight onto it, so a shard set fills
    // one vector shard by shard. Thread-safe. With `failures` null the
    // first unreadable row group throws; otherwise each unreadable group's
    // intersection with the range is appended to `failures` (in row order)
    // and its tuples are skipped. Retries run first either way, and a
    // range past the end always throws (caller bug).
    void append_rows(std::uint64_t begin, std::uint64_t count,
                     std::vector<LoggedTuple>& out,
                     std::vector<TupleReadFailure>* failures) const;

    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace dre::store

#endif // DRE_STORE_READER_H
