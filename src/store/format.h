// On-disk layout of the .drt columnar trace format (version 1).
//
// A .drt file holds one logged trace (trace/types.h tuples) in columnar row
// groups so that scans touch only contiguous arrays and evaluation can
// proceed one row group at a time with bounded memory:
//
//   ┌────────────────────┐ offset 0
//   │ Header   (40 B)    │ magic, version, endian check, schema, counts
//   ├────────────────────┤
//   │ Row group 0        │ per-column contiguous arrays (layout below)
//   │ Row group 1        │
//   │ …                  │
//   ├────────────────────┤ footer_offset
//   │ Footer             │ row-group index: {offset, rows, crc32c}*, + CRC
//   ├────────────────────┤ file_size - 16
//   │ Tail     (16 B)    │ footer_offset, end magic
//   └────────────────────┘
//
// Inside a row group of m rows every column is a contiguous array, each
// padded to an 8-byte boundary so doubles in the mapped file are always
// naturally aligned for zero-copy spans:
//
//   decision  i32[m]   reward f64[m]   propensity f64[m]   state i32[m]
//   numeric_0 f64[m] … numeric_{nd-1}  categorical_0 i32[m] … cat_{cd-1}
//
// Integrity: each row group carries a CRC-32C over its padded payload,
// recorded in the footer; the footer itself is checksummed; the tail's end
// magic catches truncation before the footer is even located. Writers
// produce the file at `<path>.tmp` and rename into place on finalize, so a
// crashed run never leaves a half-written .drt behind (see writer.h).
//
// All multi-byte fields are stored in host byte order; the header's
// endian-check word rejects files from a foreign-endian host with a clear
// error instead of decoding garbage.
#ifndef DRE_STORE_FORMAT_H
#define DRE_STORE_FORMAT_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace dre::store {

// File magic, PNG-style: a non-ASCII lead byte (catches text-mode
// corruption), the format name, CRLF + ^Z + LF (catch newline translation).
inline constexpr unsigned char kMagic[8] = {0x89, 'D', 'R', 'T',
                                            '\r', '\n', 0x1a, '\n'};
// Trailing magic closing the tail; a file without it is truncated.
inline constexpr unsigned char kEndMagic[8] = {'D', 'R', 'T', 'E',
                                               'N', 'D', '.', '\n'};

inline constexpr std::uint32_t kFormatVersion = 1;
// Written as a 32-bit word; reads back permuted on a foreign-endian host.
inline constexpr std::uint32_t kEndianCheck = 0x01020304u;
inline constexpr std::uint32_t kDefaultRowGroupRows = 16384;

inline constexpr std::size_t kHeaderBytes = 40;
inline constexpr std::size_t kTailBytes = 16;
// Footer: u64 group count + 16 B per group + u32 CRC + u32 zero pad.
inline constexpr std::size_t kFooterEntryBytes = 16;
inline constexpr std::size_t kFooterFixedBytes = 16;

// Context column widths; two traces are store-compatible iff these match.
struct StoreSchema {
    std::uint32_t numeric_dims = 0;
    std::uint32_t categorical_dims = 0;
    bool operator==(const StoreSchema&) const = default;
};

// Decoded header. `num_decisions` and `num_tuples` are back-patched by the
// writer at finalize time (they are not known while appending).
struct StoreHeader {
    std::uint32_t version = kFormatVersion;
    std::uint32_t endian_check = kEndianCheck;
    StoreSchema schema;
    std::uint32_t row_group_rows = kDefaultRowGroupRows;
    std::uint32_t num_decisions = 0;
    std::uint64_t num_tuples = 0;
};

// One footer index entry.
struct RowGroupInfo {
    std::uint64_t offset = 0; // absolute file offset of the group payload
    std::uint32_t rows = 0;
    std::uint32_t crc = 0; // CRC-32C of the padded payload
};

inline constexpr std::size_t align8(std::size_t x) {
    return (x + 7) & ~std::size_t{7};
}

// Byte offsets of each column inside a row group of `rows` rows.
struct RowGroupLayout {
    std::size_t rows = 0;
    std::size_t i32_col_bytes = 0; // padded size of one i32 column
    std::size_t f64_col_bytes = 0;
    std::size_t decision_off = 0;
    std::size_t reward_off = 0;
    std::size_t propensity_off = 0;
    std::size_t state_off = 0;
    std::size_t numeric_off = 0;     // nd consecutive f64 columns
    std::size_t categorical_off = 0; // cd consecutive i32 columns
    std::size_t bytes = 0;           // total padded payload size

    static RowGroupLayout compute(const StoreSchema& schema, std::size_t rows) {
        RowGroupLayout l;
        l.rows = rows;
        l.i32_col_bytes = align8(rows * sizeof(std::int32_t));
        l.f64_col_bytes = rows * sizeof(double); // already 8-aligned
        l.decision_off = 0;
        l.reward_off = l.decision_off + l.i32_col_bytes;
        l.propensity_off = l.reward_off + l.f64_col_bytes;
        l.state_off = l.propensity_off + l.f64_col_bytes;
        l.numeric_off = l.state_off + l.i32_col_bytes;
        l.categorical_off = l.numeric_off + schema.numeric_dims * l.f64_col_bytes;
        l.bytes = l.categorical_off + schema.categorical_dims * l.i32_col_bytes;
        return l;
    }

    std::size_t numeric_col_off(std::size_t j) const {
        return numeric_off + j * f64_col_bytes;
    }
    std::size_t categorical_col_off(std::size_t j) const {
        return categorical_off + j * i32_col_bytes;
    }
};

// Zero-copy typed views over one row group's columns. The spans alias the
// owning StoreReader's mapping and stay valid while the reader lives.
struct RowGroupView {
    std::size_t rows = 0;
    std::span<const std::int32_t> decision;
    std::span<const double> reward;
    std::span<const double> propensity;
    std::span<const std::int32_t> state;
    std::vector<std::span<const double>> numeric;
    std::vector<std::span<const std::int32_t>> categorical;
};

// --- Fixed-field serialization --------------------------------------------
// Host byte order throughout (see the endian check above); memcpy keeps the
// accesses alignment-safe.

template <typename T>
inline void encode_value(unsigned char* out, std::size_t& pos, T value) {
    std::memcpy(out + pos, &value, sizeof(T));
    pos += sizeof(T);
}

template <typename T>
inline T decode_value(const unsigned char* in, std::size_t& pos) {
    T value;
    std::memcpy(&value, in + pos, sizeof(T));
    pos += sizeof(T);
    return value;
}

inline void encode_header(const StoreHeader& h,
                          unsigned char out[kHeaderBytes]) {
    std::size_t pos = 0;
    std::memcpy(out, kMagic, sizeof(kMagic));
    pos += sizeof(kMagic);
    encode_value(out, pos, h.version);
    encode_value(out, pos, h.endian_check);
    encode_value(out, pos, h.schema.numeric_dims);
    encode_value(out, pos, h.schema.categorical_dims);
    encode_value(out, pos, h.row_group_rows);
    encode_value(out, pos, h.num_decisions);
    encode_value(out, pos, h.num_tuples);
}

// Decodes the fixed fields only; magic/version/endian validation belongs to
// the reader, which owns the error messages.
inline StoreHeader decode_header(const unsigned char in[kHeaderBytes]) {
    StoreHeader h;
    std::size_t pos = sizeof(kMagic);
    h.version = decode_value<std::uint32_t>(in, pos);
    h.endian_check = decode_value<std::uint32_t>(in, pos);
    h.schema.numeric_dims = decode_value<std::uint32_t>(in, pos);
    h.schema.categorical_dims = decode_value<std::uint32_t>(in, pos);
    h.row_group_rows = decode_value<std::uint32_t>(in, pos);
    h.num_decisions = decode_value<std::uint32_t>(in, pos);
    h.num_tuples = decode_value<std::uint64_t>(in, pos);
    return h;
}

inline std::size_t footer_bytes(std::size_t num_row_groups) {
    return kFooterFixedBytes + num_row_groups * kFooterEntryBytes;
}

} // namespace dre::store

#endif // DRE_STORE_FORMAT_H
