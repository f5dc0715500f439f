// StoreWriter — append-only .drt producer with atomic finalize.
//
// Rows are buffered column-wise and flushed as full row groups, so the
// writer's memory footprint is one row group regardless of trace size. All
// bytes go to `<path>.tmp`; finalize() writes the footer index and tail,
// back-patches the header counts, fsyncs, and renames the temp file into
// place — readers therefore only ever see absent or complete files, never
// a torn one. A writer destroyed without finalize() removes its temp file.
#ifndef DRE_STORE_WRITER_H
#define DRE_STORE_WRITER_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "store/format.h"
#include "trace/trace.h"

namespace dre::store {

// Namespace-scope (not nested) so it is complete where constructor default
// arguments need it; spelled StoreWriter::Options at call sites.
struct StoreWriterOptions {
    std::uint32_t row_group_rows = kDefaultRowGroupRows;
};

class StoreWriter {
public:
    using Options = StoreWriterOptions;

    // Opens `<path>.tmp` for writing. Throws std::runtime_error if the file
    // cannot be created and std::invalid_argument on a zero row-group size.
    StoreWriter(std::string path, StoreSchema schema, Options options = {});
    ~StoreWriter();
    StoreWriter(const StoreWriter&) = delete;
    StoreWriter& operator=(const StoreWriter&) = delete;

    // Appends one tuple. The context widths must match the schema declared
    // at construction (std::invalid_argument otherwise).
    void append(const LoggedTuple& tuple);
    void append(const Trace& trace);


    // Flushes the partial row group, writes footer + tail, patches the
    // header counts, fsyncs, and atomically renames `<path>.tmp` → path.
    // May be called exactly once; appends after finalize throw.
    void finalize();

private:
    void flush_row_group();
    void write_bytes(const void* data, std::size_t size);

    std::string path_;
    std::string tmp_path_;
    StoreSchema schema_;
    std::uint32_t row_group_rows_;
    std::FILE* file_ = nullptr;
    bool finalized_ = false;

    std::uint64_t rows_total_ = 0;
    std::int32_t max_decision_ = -1;
    std::uint64_t write_offset_ = 0;
    std::vector<RowGroupInfo> groups_;

    // Current (partial) row group, column-wise.
    std::vector<std::int32_t> decisions_;
    std::vector<double> rewards_;
    std::vector<double> propensities_;
    std::vector<std::int32_t> states_;
    std::vector<std::vector<double>> numeric_;           // [dim][row]
    std::vector<std::vector<std::int32_t>> categorical_; // [dim][row]
    std::vector<unsigned char> scratch_;                 // serialized group
};

// Convenience: write a whole in-memory trace as one .drt file. The schema
// is taken from the first tuple ({0, 0} for an empty trace).
void write_store_file(const Trace& trace, const std::string& path,
                      StoreWriter::Options options = {});

} // namespace dre::store

#endif // DRE_STORE_WRITER_H
