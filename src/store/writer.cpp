#include "store/writer.h"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <unistd.h>

#include "obs/obs.h"
#include "store/crc32c.h"

namespace dre::store {
namespace {

[[noreturn]] void fail_errno(const std::string& what, const std::string& path) {
    throw std::runtime_error("StoreWriter: " + what + " " + path + ": " +
                             std::strerror(errno));
}

} // namespace

StoreWriter::StoreWriter(std::string path, StoreSchema schema, Options options)
    : path_(std::move(path)),
      tmp_path_(path_ + ".tmp"),
      schema_(schema),
      row_group_rows_(options.row_group_rows) {
    if (row_group_rows_ == 0)
        throw std::invalid_argument("StoreWriter: row_group_rows must be >= 1");
    file_ = std::fopen(tmp_path_.c_str(), "wb");
    if (file_ == nullptr) fail_errno("cannot create", tmp_path_);

    numeric_.resize(schema_.numeric_dims);
    categorical_.resize(schema_.categorical_dims);
    const std::size_t reserve =
        std::min<std::size_t>(row_group_rows_, 1u << 20);
    decisions_.reserve(reserve);
    rewards_.reserve(reserve);
    propensities_.reserve(reserve);
    states_.reserve(reserve);
    for (auto& col : numeric_) col.reserve(reserve);
    for (auto& col : categorical_) col.reserve(reserve);

    // Placeholder header; the counts are patched in finalize().
    unsigned char header[kHeaderBytes];
    StoreHeader h;
    h.schema = schema_;
    h.row_group_rows = row_group_rows_;
    encode_header(h, header);
    write_bytes(header, kHeaderBytes);
}

StoreWriter::~StoreWriter() {
    if (file_ != nullptr) {
        // Not finalized: drop the partial temp file so a crashed or
        // abandoned write never masquerades as a trace.
        std::fclose(file_);
        std::remove(tmp_path_.c_str());
    }
}

void StoreWriter::write_bytes(const void* data, std::size_t size) {
    if (size == 0) return;
    if (std::fwrite(data, 1, size, file_) != size)
        fail_errno("write failed for", tmp_path_);
    write_offset_ += size;
}

void StoreWriter::append(const LoggedTuple& tuple) {
    if (finalized_ || file_ == nullptr)
        throw std::logic_error("StoreWriter: append after finalize");
    if (tuple.context.numeric_dims() != schema_.numeric_dims ||
        tuple.context.categorical_dims() != schema_.categorical_dims)
        throw std::invalid_argument(
            "StoreWriter: tuple context schema (" +
            std::to_string(tuple.context.numeric_dims()) + " numeric, " +
            std::to_string(tuple.context.categorical_dims()) +
            " categorical) does not match store schema (" +
            std::to_string(schema_.numeric_dims) + ", " +
            std::to_string(schema_.categorical_dims) + ")");
    decisions_.push_back(tuple.decision);
    rewards_.push_back(tuple.reward);
    propensities_.push_back(tuple.propensity);
    states_.push_back(tuple.state);
    for (std::uint32_t j = 0; j < schema_.numeric_dims; ++j)
        numeric_[j].push_back(tuple.context.numeric[j]);
    for (std::uint32_t j = 0; j < schema_.categorical_dims; ++j)
        categorical_[j].push_back(tuple.context.categorical[j]);
    max_decision_ = std::max(max_decision_, tuple.decision);
    ++rows_total_;
    if (decisions_.size() == row_group_rows_) flush_row_group();
}

void StoreWriter::append(const Trace& trace) {
    for (const LoggedTuple& tuple : trace) append(tuple);
}

void StoreWriter::flush_row_group() {
    const std::size_t rows = decisions_.size();
    if (rows == 0) return;
    const RowGroupLayout layout = RowGroupLayout::compute(schema_, rows);
    scratch_.assign(layout.bytes, 0); // zeroed so padding is deterministic
    auto copy_col = [&](std::size_t off, const void* src, std::size_t bytes) {
        std::memcpy(scratch_.data() + off, src, bytes);
    };
    copy_col(layout.decision_off, decisions_.data(),
             rows * sizeof(std::int32_t));
    copy_col(layout.reward_off, rewards_.data(), rows * sizeof(double));
    copy_col(layout.propensity_off, propensities_.data(),
             rows * sizeof(double));
    copy_col(layout.state_off, states_.data(), rows * sizeof(std::int32_t));
    for (std::uint32_t j = 0; j < schema_.numeric_dims; ++j)
        copy_col(layout.numeric_col_off(j), numeric_[j].data(),
                 rows * sizeof(double));
    for (std::uint32_t j = 0; j < schema_.categorical_dims; ++j)
        copy_col(layout.categorical_col_off(j), categorical_[j].data(),
                 rows * sizeof(std::int32_t));

    RowGroupInfo info;
    info.offset = write_offset_;
    info.rows = static_cast<std::uint32_t>(rows);
    info.crc = crc32c(scratch_.data(), scratch_.size());
    write_bytes(scratch_.data(), scratch_.size());
    groups_.push_back(info);
#if DRE_OBS_ENABLED
    DRE_COUNTER_INC("store.row_groups_written");
    DRE_COUNTER_ADD("store.bytes_written", layout.bytes);
#endif

    decisions_.clear();
    rewards_.clear();
    propensities_.clear();
    states_.clear();
    for (auto& col : numeric_) col.clear();
    for (auto& col : categorical_) col.clear();
}

void StoreWriter::finalize() {
    if (finalized_ || file_ == nullptr)
        throw std::logic_error("StoreWriter: finalize called twice");
    DRE_SPAN("store.finalize");
    flush_row_group();

    // Footer: group count, index entries, CRC over the preceding footer
    // bytes, zero pad to keep the tail 8-aligned.
    const std::uint64_t footer_offset = write_offset_;
    std::vector<unsigned char> footer(footer_bytes(groups_.size()), 0);
    std::size_t pos = 0;
    encode_value(footer.data(), pos, static_cast<std::uint64_t>(groups_.size()));
    for (const RowGroupInfo& g : groups_) {
        encode_value(footer.data(), pos, g.offset);
        encode_value(footer.data(), pos, g.rows);
        encode_value(footer.data(), pos, g.crc);
    }
    const std::uint32_t footer_crc = crc32c(footer.data(), pos);
    encode_value(footer.data(), pos, footer_crc);
    encode_value(footer.data(), pos, std::uint32_t{0});
    write_bytes(footer.data(), footer.size());

    unsigned char tail[kTailBytes];
    pos = 0;
    encode_value(tail, pos, footer_offset);
    std::memcpy(tail + pos, kEndMagic, sizeof(kEndMagic));
    write_bytes(tail, kTailBytes);

    // Back-patch the header counts now that they are known.
    StoreHeader h;
    h.schema = schema_;
    h.row_group_rows = row_group_rows_;
    h.num_decisions =
        max_decision_ < 0 ? 0 : static_cast<std::uint32_t>(max_decision_) + 1;
    h.num_tuples = rows_total_;
    unsigned char header[kHeaderBytes];
    encode_header(h, header);
    if (std::fseek(file_, 0, SEEK_SET) != 0)
        fail_errno("seek failed for", tmp_path_);
    if (std::fwrite(header, 1, kHeaderBytes, file_) != kHeaderBytes)
        fail_errno("header rewrite failed for", tmp_path_);

    if (std::fflush(file_) != 0) fail_errno("flush failed for", tmp_path_);
    if (::fsync(::fileno(file_)) != 0) fail_errno("fsync failed for", tmp_path_);
    if (std::fclose(file_) != 0) {
        file_ = nullptr;
        fail_errno("close failed for", tmp_path_);
    }
    file_ = nullptr;
    if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0)
        fail_errno("rename failed for", tmp_path_);
    finalized_ = true;
}

void write_store_file(const Trace& trace, const std::string& path,
                      StoreWriter::Options options) {
    StoreSchema schema;
    if (!trace.empty()) {
        schema.numeric_dims =
            static_cast<std::uint32_t>(trace[0].context.numeric_dims());
        schema.categorical_dims =
            static_cast<std::uint32_t>(trace[0].context.categorical_dims());
    }
    StoreWriter writer(path, schema, options);
    writer.append(trace);
    writer.finalize();
}

} // namespace dre::store
