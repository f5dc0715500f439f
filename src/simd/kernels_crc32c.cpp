// Hardware CRC-32C: the `crc32c` entry of the AVX2 and AVX-512 tables.
// It needs only SSE4.2's `crc32` instruction, which every AVX2 CPU has
// (the dispatch probe checks both).
//
// The CRC runs three independent `_mm_crc32_u64` streams per block to cover
// the instruction's 3-cycle latency, then stitches the streams together with
// a GF(2) zero-extension operator (the standard crc32_combine construction:
// CRC is linear over GF(2), so the register after A‖B‖C equals
// shift(shift(crcA) ^ crcB) ^ crcC where shift() advances a register over a
// block's worth of zero bytes). The operator is built once by repeated
// matrix squaring and flattened to byte lookup tables.
#include "simd/kernels.h"

#if DRE_SIMD_X86

#include <immintrin.h>

#include <cstring>

namespace dre::simd::detail {
namespace {

constexpr std::uint32_t kPoly = 0x82f63b78u;

// Bytes per interleaved stream. LONG amortizes the combine cost on row-group
// sized buffers; SHORT mops up medium remainders.
constexpr std::size_t kLongBlock = 4096;
constexpr std::size_t kShortBlock = 384;

// The "advance a CRC register over N zero bytes" operator, as 4×256 byte
// lookup tables. Built from the one-zero-bit operator (in the reflected
// domain: e0 → poly, ei → e(i-1)) raised to the 8Nth power by repeated
// squaring.
struct CrcShift {
    std::uint32_t table[4][256];

    explicit CrcShift(std::size_t zero_bytes) {
        std::uint32_t op[32], sq[32];
        op[0] = kPoly;
        for (int i = 1; i < 32; ++i) op[i] = 1u << (i - 1);
        // op currently shifts by 1 bit; square until it shifts by 8*N bits.
        std::uint64_t bits = static_cast<std::uint64_t>(zero_bytes) * 8;
        // Decompose: result = op^(bits). Exponentiate by squaring.
        std::uint32_t result[32];
        for (int i = 0; i < 32; ++i) result[i] = 1u << i; // identity
        while (bits != 0) {
            if (bits & 1u) {
                for (int i = 0; i < 32; ++i) sq[i] = times(op, result[i]);
                std::memcpy(result, sq, sizeof(result));
            }
            bits >>= 1;
            if (bits == 0) break;
            for (int i = 0; i < 32; ++i) sq[i] = times(op, op[i]);
            std::memcpy(op, sq, sizeof(op));
        }
        for (int k = 0; k < 4; ++k)
            for (std::uint32_t b = 0; b < 256; ++b)
                table[k][b] = times(result, b << (8 * k));
    }

    static std::uint32_t times(const std::uint32_t mat[32], std::uint32_t vec) {
        std::uint32_t sum = 0;
        for (int i = 0; vec != 0; vec >>= 1, ++i)
            if (vec & 1u) sum ^= mat[i];
        return sum;
    }

    std::uint32_t apply(std::uint32_t crc) const {
        return table[0][crc & 0xffu] ^ table[1][(crc >> 8) & 0xffu] ^
               table[2][(crc >> 16) & 0xffu] ^ table[3][crc >> 24];
    }
};

const CrcShift& long_shift() {
    static const CrcShift s(kLongBlock);
    return s;
}

const CrcShift& short_shift() {
    static const CrcShift s(kShortBlock);
    return s;
}

} // namespace

__attribute__((target("sse4.2")))
std::uint32_t crc32c_hw(const void* data, std::size_t size,
                        std::uint32_t seed) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint32_t crc32 = ~seed;
    while (size > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
        crc32 = _mm_crc32_u8(crc32, *p++);
        --size;
    }
    std::uint64_t crc = crc32;
    const struct {
        std::size_t block;
        const CrcShift* shift;
    } phases[2] = {{kLongBlock, &long_shift()}, {kShortBlock, &short_shift()}};
    for (const auto& phase : phases) {
        const std::size_t block = phase.block;
        while (size >= 3 * block) {
            std::uint64_t c0 = crc, c1 = 0, c2 = 0;
            for (std::size_t i = 0; i < block; i += 8) {
                std::uint64_t w0, w1, w2;
                std::memcpy(&w0, p + i, 8);
                std::memcpy(&w1, p + block + i, 8);
                std::memcpy(&w2, p + 2 * block + i, 8);
                c0 = _mm_crc32_u64(c0, w0);
                c1 = _mm_crc32_u64(c1, w1);
                c2 = _mm_crc32_u64(c2, w2);
            }
            std::uint32_t combined =
                phase.shift->apply(static_cast<std::uint32_t>(c0)) ^
                static_cast<std::uint32_t>(c1);
            combined =
                phase.shift->apply(combined) ^ static_cast<std::uint32_t>(c2);
            crc = combined;
            p += 3 * block;
            size -= 3 * block;
        }
    }
    while (size >= 8) {
        std::uint64_t w;
        std::memcpy(&w, p, 8);
        crc = _mm_crc32_u64(crc, w);
        p += 8;
        size -= 8;
    }
    crc32 = static_cast<std::uint32_t>(crc);
    while (size-- != 0) crc32 = _mm_crc32_u8(crc32, *p++);
    return ~crc32;
}

} // namespace dre::simd::detail

#endif // DRE_SIMD_X86
