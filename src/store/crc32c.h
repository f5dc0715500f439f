// CRC-32C (Castagnoli) checksums for the .drt trace store.
//
// Every row group and the footer index carry a CRC-32C so that torn writes,
// truncation, and bit rot are detected at read time instead of silently
// skewing estimates (see reader.h). CRC-32C rather than plain CRC-32
// because its error-detection properties are strictly better for the short
// payloads here and it is the checksum ecosystem standard for columnar
// formats (Parquet pages, leveldb blocks, iSCSI).
#ifndef DRE_STORE_CRC32C_H
#define DRE_STORE_CRC32C_H

#include <cstddef>
#include <cstdint>

namespace dre::store {

// CRC-32C of `size` bytes at `data`, continuing from `seed` (pass the
// previous call's return value to checksum a buffer in pieces; the result
// equals the one-shot CRC of the concatenation). Dispatches through
// dre::simd — hardware `crc32` at the AVX2 and AVX-512 levels, software
// slicing-by-8 at the scalar level — with identical output on every
// platform and dispatch level (tests/test_simd.cpp enforces byte equality).
std::uint32_t crc32c(const void* data, std::size_t size, std::uint32_t seed = 0);

} // namespace dre::store

#endif // DRE_STORE_CRC32C_H
