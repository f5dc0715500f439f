// Scalar level: the executable specification of every kernel's canonical
// arithmetic. The vector levels must match these byte-for-byte (see simd.h);
// tests/test_simd.cpp enforces it. Written with the 8-lane blocking spelled
// out rather than a simple running sum, because the lane structure IS the
// contract, not an optimization.
#include "simd/kernels.h"

#include <array>
#include <bit>
#include <cstring>

#include "simd/xoshiro.h"

namespace dre::simd::detail {
namespace {

// Reflected CRC-32C polynomial (Castagnoli).
constexpr std::uint32_t kPoly = 0x82f63b78u;

struct CrcTables {
    // table[0] is the classic byte-at-a-time table; table[k] advances a byte
    // that sits k positions deeper in the message, enabling 8-byte strides.
    std::array<std::array<std::uint32_t, 256>, 8> table;

    CrcTables() {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t crc = i;
            for (int bit = 0; bit < 8; ++bit)
                crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
            table[0][i] = crc;
        }
        for (std::size_t k = 1; k < 8; ++k)
            for (std::uint32_t i = 0; i < 256; ++i)
                table[k][i] =
                    (table[k - 1][i] >> 8) ^ table[0][table[k - 1][i] & 0xffu];
    }
};

const CrcTables& crc_tables() {
    static const CrcTables t;
    return t;
}

} // namespace

std::uint32_t crc32c_scalar(const void* data, std::size_t size,
                            std::uint32_t seed) {
    const auto& t = crc_tables().table;
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint32_t crc = ~seed;
    // The 8-byte stride folds two 32-bit words at once; the word-extraction
    // below assumes little-endian layout, so other hosts take the (equally
    // correct, slower) byte loop. Cross-endian files are rejected by the
    // store header's endian check anyway (store/format.h).
    if constexpr (std::endian::native == std::endian::little) {
        while (size >= 8) {
            std::uint32_t lo, hi;
            std::memcpy(&lo, p, 4);
            std::memcpy(&hi, p + 4, 4);
            lo ^= crc;
            crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
                  t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
                  t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
                  t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
            p += 8;
            size -= 8;
        }
    }
    while (size-- != 0) crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xffu];
    return ~crc;
}

std::size_t l2sq_scan_scalar(const double* blocks, std::size_t num_blocks,
                             std::size_t dims, const double* query,
                             double worst, double* cand_d2,
                             std::uint32_t* cand_idx) {
    std::size_t count = 0;
    std::size_t b = 0;
    // Paired blocks: 16 lanes accumulated side by side. The pair is
    // abandoned only when ALL 16 partial sums exceed `worst` — a weaker
    // predicate than per-block abandonment, but it doubles the number of
    // independent accumulator chains, which is what the latency-bound
    // vector levels need. The pairing (and its abandon predicate) is part
    // of the cross-level contract: every level pairs identically, so work
    // counters and candidate lists match. Candidates are still appended in
    // slot order because pair lane l maps to slot b*8 + l for l in [0, 16).
    for (; b + 2 <= num_blocks; b += 2) {
        const double* blk0 = blocks + b * dims * 8;
        const double* blk1 = blk0 + dims * 8;
        double acc[16] = {};
        bool aborted = false;
        for (std::size_t d = 0; d < dims; ++d) {
            const double q = query[d];
            const double* c0 = blk0 + d * 8;
            const double* c1 = blk1 + d * 8;
            for (int lane = 0; lane < 8; ++lane) {
                const double diff = c0[lane] - q;
                acc[lane] += diff * diff;
            }
            for (int lane = 0; lane < 8; ++lane) {
                const double diff = c1[lane] - q;
                acc[8 + lane] += diff * diff;
            }
            if ((d & (kAbortStride - 1)) == kAbortStride - 1) {
                bool all_exceed = true;
                for (int lane = 0; lane < 16; ++lane)
                    all_exceed &= (acc[lane] > worst);
                if (all_exceed) {
                    aborted = true;
                    break;
                }
            }
        }
        if (aborted) continue;
        for (int lane = 0; lane < 16; ++lane) {
            if (acc[lane] <= worst) {
                cand_d2[count] = acc[lane];
                cand_idx[count] = static_cast<std::uint32_t>(b * 8 + lane);
                ++count;
            }
        }
    }
    for (; b < num_blocks; ++b) {
        const double* block = blocks + b * dims * 8;
        double acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
        bool aborted = false;
        for (std::size_t d = 0; d < dims; ++d) {
            const double q = query[d];
            const double* col = block + d * 8;
            for (int lane = 0; lane < 8; ++lane) {
                const double diff = col[lane] - q;
                acc[lane] += diff * diff;
            }
            // Abandon the block only when EVERY lane's partial sum
            // strictly exceeds `worst` (partial sums only grow, so no lane
            // could still become a candidate). Checked every
            // kAbortStride-th dimension — see kernels.h. Ordered compare:
            // a NaN lane never reports "exceeds", matching the vector
            // levels' ordered-GT semantics.
            if ((d & (kAbortStride - 1)) == kAbortStride - 1) {
                bool all_exceed = true;
                for (int lane = 0; lane < 8; ++lane)
                    all_exceed &= (acc[lane] > worst);
                if (all_exceed) {
                    aborted = true;
                    break;
                }
            }
        }
        if (aborted) continue;
        // Candidates: lanes whose final distance is <= worst (ordered, so
        // a NaN lane never qualifies — matching the vector levels' LE_OQ),
        // appended in lane order.
        for (int lane = 0; lane < 8; ++lane) {
            if (acc[lane] <= worst) {
                cand_d2[count] = acc[lane];
                cand_idx[count] = static_cast<std::uint32_t>(b * 8 + lane);
                ++count;
            }
        }
    }
    return count;
}

double weighted_sum_skip_zero_scalar(const double* w, const double* x,
                                     std::size_t n, std::uint64_t* skips) {
    double acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    std::uint64_t zeros = 0;
    weighted_tail(acc, w, x, 0, n, zeros);
    if (skips != nullptr) *skips += zeros;
    return reduce8(acc);
}

void resample_sum8_scalar(const double* values, std::size_t m,
                          const std::uint64_t* states, std::size_t streams,
                          double* out) {
    for (std::size_t s = 0; s < streams; ++s) {
        std::uint64_t state[4] = {states[4 * s], states[4 * s + 1],
                                  states[4 * s + 2], states[4 * s + 3]};
        double acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
        for (std::size_t i = 0; i < m; ++i)
            acc[i & 7] += values[lemire_index(state, m)];
        out[s] = reduce8(acc);
    }
}

} // namespace dre::simd::detail
