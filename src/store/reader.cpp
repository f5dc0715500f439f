#include "store/reader.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "fault/fault.h"
#include "obs/obs.h"
#include "store/crc32c.h"

namespace dre::store {
namespace {

// Tries per transient fault at open and per row-group fetch (see reader.h).
constexpr int kMaxAttempts = 3;

[[noreturn]] void fail(const std::string& path, const std::string& what,
                       ErrorKind kind = ErrorKind::kPermanent) {
    throw StoreError(kind, "drt " + path + ": " + what);
}

// Errnos worth a bounded retry: scheduler/resource blips and the I/O-error
// class a flaky disk or network filesystem produces. Everything else
// (ENOENT, EBADF, EACCES, ...) is permanent.
bool transient_errno(int err) noexcept {
    return err == EAGAIN || err == EWOULDBLOCK || err == EIO ||
           err == ENOMEM || err == ENOBUFS;
}

std::string hex32(std::uint32_t v) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%08x", v);
    return buf;
}

// Maps `path` read-only and sets `size`. The descriptor is closed before
// returning: the mapping keeps the file's pages reachable on its own.
const unsigned char* map_file(const std::string& path, std::uint64_t& size) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        fail(path, std::string("cannot open: ") + std::strerror(errno),
             transient_errno(errno) ? ErrorKind::kTransient
                                    : ErrorKind::kPermanent);
    struct ::stat st {};
    if (::fstat(fd, &st) != 0) {
        const int err = errno;
        ::close(fd);
        fail(path, std::string("stat failed: ") + std::strerror(err));
    }
    size = static_cast<std::uint64_t>(st.st_size);
    if (size < kHeaderBytes + kTailBytes) {
        ::close(fd);
        fail(path, "file too small to be a .drt trace (truncated?)");
    }
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
    const int err = errno;
    ::close(fd);
    if (map == MAP_FAILED)
        fail(path, std::string("mmap failed: ") + std::strerror(err));
    return static_cast<const unsigned char*>(map);
}

RowGroupView make_view(const StoreSchema& schema, const unsigned char* base,
                       std::size_t rows) {
    const RowGroupLayout layout = RowGroupLayout::compute(schema, rows);
    RowGroupView v;
    v.rows = rows;
    // The column offsets are 8-aligned by construction and open rejects a
    // group that does not start 8-aligned in the page-aligned mapping, so
    // the casts are aligned.
    v.decision = {reinterpret_cast<const std::int32_t*>(base + layout.decision_off),
                  rows};
    v.reward = {reinterpret_cast<const double*>(base + layout.reward_off), rows};
    v.propensity = {reinterpret_cast<const double*>(base + layout.propensity_off),
                    rows};
    v.state = {reinterpret_cast<const std::int32_t*>(base + layout.state_off),
               rows};
    v.numeric.reserve(schema.numeric_dims);
    for (std::uint32_t j = 0; j < schema.numeric_dims; ++j)
        v.numeric.push_back(
            {reinterpret_cast<const double*>(base + layout.numeric_col_off(j)),
             rows});
    v.categorical.reserve(schema.categorical_dims);
    for (std::uint32_t j = 0; j < schema.categorical_dims; ++j)
        v.categorical.push_back({reinterpret_cast<const std::int32_t*>(
                                     base + layout.categorical_col_off(j)),
                                 rows});
    return v;
}

// Decodes rows [lo, hi) of one row group onto the end of `out`, each
// tuple built in place.
void decode_rows(const RowGroupView& v, std::size_t lo, std::size_t hi,
                 std::vector<LoggedTuple>& out) {
    for (std::size_t k = lo; k < hi; ++k) {
        LoggedTuple& t = out.emplace_back();
        t.decision = v.decision[k];
        t.reward = v.reward[k];
        t.propensity = v.propensity[k];
        t.state = v.state[k];
        t.context.numeric.resize(v.numeric.size());
        for (std::size_t j = 0; j < v.numeric.size(); ++j)
            t.context.numeric[j] = v.numeric[j][k];
        t.context.categorical.resize(v.categorical.size());
        for (std::size_t j = 0; j < v.categorical.size(); ++j)
            t.context.categorical[j] = v.categorical[j][k];
    }
}

} // namespace

struct StoreReader::Impl {
    std::string path;
    Options options;
    StoreHeader header;
    std::vector<RowGroupInfo> groups;
    std::vector<std::uint64_t> row_offset; // prefix sums; size groups+1
    std::uint64_t file_size = 0;
    const unsigned char* map_base = nullptr;
    std::unique_ptr<std::atomic<bool>[]> validated; // lazy CRC memo

    ~Impl() {
        if (map_base != nullptr)
            ::munmap(const_cast<unsigned char*>(map_base), file_size);
    }

    // Deterministic virtual backoff: computed and recorded, never slept —
    // retries must not perturb bit-reproducible runs.
    void record_retry(int attempt) const {
        const double backoff_ms = std::ldexp(1.0, attempt); // 1 ms x 2^attempt
        (void)backoff_ms;
        DRE_COUNTER_INC("store.retries");
        DRE_HIST_RECORD("store.retry_backoff_ms", backoff_ms);
    }

    void check_group_crc(std::size_t g, const unsigned char* bytes,
                         std::size_t size) const {
        const std::uint32_t got = crc32c(bytes, size);
        if (got != groups[g].crc) {
            DRE_COUNTER_INC("store.checksum_failures");
            fail(path,
                 "row group " + std::to_string(g) +
                     " checksum mismatch (expected " + hex32(groups[g].crc) +
                     ", got " + hex32(got) + ")",
                 ErrorKind::kCorruption);
        }
        DRE_COUNTER_INC("store.row_groups_decoded");
        DRE_COUNTER_ADD("store.bytes_read", size);
    }

    // One fetch attempt (no retries). Throws FaultError from the injection
    // points and StoreError on a checksum mismatch.
    RowGroupView fetch_group(std::size_t group, std::uint64_t attempt) const {
        const RowGroupInfo& info = groups[group];
        const std::uint64_t fault_index = options.fault_group_offset + group;
        DRE_FAULT_INJECT("store.read", fault_index, attempt);
        DRE_FAULT_INJECT("store.crc", fault_index, attempt);
        const unsigned char* base = map_base + info.offset;
        // Validate lazily, once. The flag is a monotonic latch: a benign
        // double validation under a race costs a re-scan, never
        // corruption.
        if (!validated[group].load(std::memory_order_acquire)) {
            const RowGroupLayout layout =
                RowGroupLayout::compute(header.schema, info.rows);
            check_group_crc(group, base, layout.bytes);
            validated[group].store(true, std::memory_order_release);
        }
        return make_view(header.schema, base, info.rows);
    }
};

StoreReader::StoreReader(const std::string& path, Options options)
    : impl_(std::make_unique<Impl>()) {
    DRE_SPAN("store.open");
    Impl& im = *impl_;
    im.path = path;
    im.options = options;

    // `store.open` fault point, keyed by the shard index so a schedule hits
    // the same shard for any open order. Transient open faults are retried
    // like row-group fetches.
    for (int attempt = 0;; ++attempt) {
        try {
            DRE_FAULT_INJECT("store.open", im.options.fault_shard_index,
                             attempt);
            break;
        } catch (const fault::FaultError& e) {
            if (e.kind() != ErrorKind::kTransient || attempt + 1 >= kMaxAttempts)
                fail(path, std::string("open failed: ") + e.what(), e.kind());
            im.record_retry(attempt);
        }
    }

    im.map_base = map_file(path, im.file_size);

    // Header.
    if (std::memcmp(im.map_base, kMagic, sizeof(kMagic)) != 0)
        fail(path, "bad magic (not a .drt file)");
    im.header = decode_header(im.map_base);
    if (im.header.endian_check != kEndianCheck)
        fail(path, "endianness mismatch (file written on a foreign-endian host)");
    if (im.header.version != kFormatVersion)
        fail(path, "unsupported format version " +
                       std::to_string(im.header.version) + " (reader supports " +
                       std::to_string(kFormatVersion) + ")");
    if (im.header.row_group_rows == 0)
        fail(path, "corrupt header: zero row-group size");

    // Tail.
    const unsigned char* tail = im.map_base + im.file_size - kTailBytes;
    if (std::memcmp(tail + sizeof(std::uint64_t), kEndMagic,
                    sizeof(kEndMagic)) != 0)
        fail(path, "missing end magic (file truncated or not finalized)");
    std::size_t pos = 0;
    const auto footer_offset = decode_value<std::uint64_t>(tail, pos);
    if (footer_offset < kHeaderBytes ||
        footer_offset + kFooterFixedBytes + kTailBytes > im.file_size)
        fail(path, "footer offset out of bounds (truncated footer)");

    // Footer index.
    const unsigned char* footer = im.map_base + footer_offset;
    std::size_t p = 0;
    const auto group_count = decode_value<std::uint64_t>(footer, p);
    const std::uint64_t max_groups =
        (im.file_size - kTailBytes - footer_offset - kFooterFixedBytes) /
        kFooterEntryBytes;
    if (group_count > max_groups)
        fail(path, "truncated footer (index claims " +
                       std::to_string(group_count) + " row groups)");
    const std::size_t footer_size = footer_bytes(group_count);
    const std::size_t crc_pos = footer_size - 2 * sizeof(std::uint32_t);
    p = crc_pos;
    const auto expected_crc = decode_value<std::uint32_t>(footer, p);
    const std::uint32_t got_crc = crc32c(footer, crc_pos);
    if (got_crc != expected_crc) {
        DRE_COUNTER_INC("store.checksum_failures");
        fail(path,
             "footer checksum mismatch (expected " + hex32(expected_crc) +
                 ", got " + hex32(got_crc) + ")",
             ErrorKind::kCorruption);
    }

    im.groups.resize(group_count);
    im.row_offset.assign(group_count + 1, 0);
    p = sizeof(std::uint64_t);
    std::uint64_t rows_total = 0;
    for (std::uint64_t g = 0; g < group_count; ++g) {
        RowGroupInfo& info = im.groups[g];
        info.offset = decode_value<std::uint64_t>(footer, p);
        info.rows = decode_value<std::uint32_t>(footer, p);
        info.crc = decode_value<std::uint32_t>(footer, p);
        const RowGroupLayout layout =
            RowGroupLayout::compute(im.header.schema, info.rows);
        // Groups must start 8-aligned, as the writer places them: views
        // read doubles straight from the mapping.
        if (info.rows == 0 || info.rows > im.header.row_group_rows ||
            info.offset < kHeaderBytes || info.offset % 8 != 0 ||
            info.offset + layout.bytes > footer_offset)
            fail(path, "corrupt row-group index entry " + std::to_string(g));
        rows_total += info.rows;
        im.row_offset[g + 1] = rows_total;
    }
    if (rows_total != im.header.num_tuples)
        fail(path, "header/index tuple count mismatch (header says " +
                       std::to_string(im.header.num_tuples) + ", index sums to " +
                       std::to_string(rows_total) + ")");
    im.validated = std::make_unique<std::atomic<bool>[]>(
        std::max<std::size_t>(static_cast<std::size_t>(group_count), 1));
    for (std::uint64_t g = 0; g < group_count; ++g)
        im.validated[g].store(false, std::memory_order_relaxed);
}

StoreReader::~StoreReader() = default;

const std::string& StoreReader::path() const noexcept { return impl_->path; }
StoreSchema StoreReader::schema() const noexcept { return impl_->header.schema; }
std::size_t StoreReader::num_decisions() const noexcept {
    return impl_->header.num_decisions;
}
std::uint64_t StoreReader::num_tuples() const noexcept {
    return impl_->header.num_tuples;
}
std::size_t StoreReader::num_row_groups() const noexcept {
    return impl_->groups.size();
}

RowGroupInfo StoreReader::row_group_info(std::size_t group) const {
    if (group >= impl_->groups.size())
        fail(impl_->path, "row group " + std::to_string(group) +
                              " out of range (file has " +
                              std::to_string(impl_->groups.size()) + ")");
    return impl_->groups[group];
}

RowGroupView StoreReader::row_group(std::size_t group) const {
    const Impl& im = *impl_;
    if (group >= im.groups.size())
        fail(im.path, "row group " + std::to_string(group) +
                          " out of range (file has " +
                          std::to_string(im.groups.size()) + ")");
    // Bounded retries for transient faults; permanent and corruption
    // errors propagate on first sight.
    for (int attempt = 0;; ++attempt) {
        try {
            return im.fetch_group(group, static_cast<std::uint64_t>(attempt));
        } catch (const fault::FaultError& e) {
            if (e.kind() != ErrorKind::kTransient || attempt + 1 >= kMaxAttempts)
                throw StoreError(e.kind(),
                                 "drt " + im.path + ": row group " +
                                     std::to_string(group) + ": " + e.what());
            im.record_retry(attempt);
        }
    }
}

void StoreReader::append_rows(std::uint64_t begin, std::uint64_t count,
                              std::vector<LoggedTuple>& out,
                              std::vector<TupleReadFailure>* failures) const {
    const Impl& im = *impl_;
    if (begin + count > im.header.num_tuples)
        fail(im.path, "read_rows range [" + std::to_string(begin) + ", " +
                          std::to_string(begin + count) + ") exceeds " +
                          std::to_string(im.header.num_tuples) + " tuples");
    if (count == 0) return;
    out.reserve(out.size() + count);
    // First group containing `begin`.
    const auto it = std::upper_bound(im.row_offset.begin(), im.row_offset.end(),
                                     begin);
    std::size_t g = static_cast<std::size_t>(it - im.row_offset.begin()) - 1;
    const std::uint64_t end = begin + count;
    for (std::uint64_t row = begin; row < end; ++g) {
        const std::uint64_t group_begin = im.row_offset[g];
        const std::size_t lo = static_cast<std::size_t>(row - group_begin);
        const std::size_t hi = static_cast<std::size_t>(std::min<std::uint64_t>(
            end - group_begin, im.groups[g].rows));
        row = group_begin + hi;
        try {
            decode_rows(row_group(g), lo, hi, out);
        } catch (const StoreError& e) {
            if (failures == nullptr) throw;
            failures->push_back({group_begin + lo,
                                 static_cast<std::uint64_t>(hi - lo),
                                 e.reason_code(), e.what()});
        }
    }
}

} // namespace dre::store
