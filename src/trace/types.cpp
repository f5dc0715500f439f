#include "trace/types.h"

#include <cstring>

namespace dre {

std::vector<double> ClientContext::flattened() const {
    std::vector<double> out;
    out.reserve(numeric.size() + categorical.size());
    out.insert(out.end(), numeric.begin(), numeric.end());
    for (std::int32_t c : categorical) out.push_back(static_cast<double>(c));
    return out;
}

std::uint64_t context_fingerprint(const ClientContext& context) noexcept {
    // FNV-1a over the raw bytes of both feature vectors. Numeric features are
    // hashed bit-exactly, which is what exact-match estimators want.
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix_bytes = [&h](const void* data, std::size_t size) {
        const auto* bytes = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < size; ++i) {
            h ^= bytes[i];
            h *= 0x100000001b3ull;
        }
    };
    for (double v : context.numeric) {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        mix_bytes(&bits, sizeof(bits));
    }
    for (std::int32_t c : context.categorical) mix_bytes(&c, sizeof(c));
    return h;
}

} // namespace dre
