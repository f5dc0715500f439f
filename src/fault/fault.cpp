#include "fault/fault.h"

#include <atomic>
#include <cstdlib>

#include "obs/obs.h"
#include "stats/rng.h"

namespace dre::fault {

namespace {

// Armed/disarmed latch read by every macro hit; relaxed is enough because
// configure() happens-before the work it influences (single-threaded
// startup by contract).
std::atomic<bool> g_enabled{false};

// FNV-1a 64 over the point name — the Rng::split stream id for the point.
std::uint64_t hash_point(std::string_view point) noexcept {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : point) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

FaultKind parse_kind(const std::string& value, const std::string& token) {
    if (value == "transient") return FaultKind::kTransient;
    if (value == "permanent") return FaultKind::kPermanent;
    if (value == "corruption") return FaultKind::kCorruption;
    if (value == "slow") return FaultKind::kSlow;
    throw std::invalid_argument("fault spec: unknown kind '" + value +
                                "' in '" + token + "'");
}

double parse_probability(const std::string& value, const std::string& token) {
    char* end = nullptr;
    const double p = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || !(p >= 0.0) || p > 1.0)
        throw std::invalid_argument("fault spec: p must be in [0, 1] in '" +
                                    token + "'");
    return p;
}

std::uint64_t parse_count(const std::string& value, const char* key,
                          const std::string& token) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || v == 0)
        throw std::invalid_argument(std::string("fault spec: ") + key +
                                    " must be a positive integer in '" +
                                    token + "'");
    return static_cast<std::uint64_t>(v);
}

} // namespace

const char* to_string(FaultKind kind) noexcept {
    switch (kind) {
        case FaultKind::kTransient: return "transient";
        case FaultKind::kPermanent: return "permanent";
        case FaultKind::kCorruption: return "corruption";
        case FaultKind::kSlow: return "slow";
    }
    return "unknown";
}

FaultError::FaultError(FaultKind kind, std::string point, std::uint64_t index)
    : std::runtime_error("injected " + std::string(to_string(kind)) +
                         " fault at " + point + " (index " +
                         std::to_string(index) + ")"),
      kind_(kind),
      point_(std::move(point)),
      index_(index) {}

std::vector<PointSpec> parse_fault_spec(const std::string& spec) {
    std::vector<PointSpec> out;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        const std::size_t semi = spec.find(';', pos);
        const std::string token =
            spec.substr(pos, semi == std::string::npos ? semi : semi - pos);
        pos = semi == std::string::npos ? spec.size() : semi + 1;
        if (token.empty()) continue;

        const std::size_t colon = token.find(':');
        if (colon == std::string::npos || colon == 0)
            throw std::invalid_argument(
                "fault spec: expected '<point>:<key>=<value>,...' in '" +
                token + "'");
        PointSpec p;
        p.point = token.substr(0, colon);

        std::size_t kv_pos = colon + 1;
        while (kv_pos <= token.size()) {
            const std::size_t comma = token.find(',', kv_pos);
            const std::string kv = token.substr(
                kv_pos, comma == std::string::npos ? comma : comma - kv_pos);
            kv_pos = comma == std::string::npos ? token.size() + 1 : comma + 1;
            if (kv.empty()) continue;
            const std::size_t eq = kv.find('=');
            if (eq == std::string::npos || eq == 0)
                throw std::invalid_argument(
                    "fault spec: expected '<key>=<value>' in '" + token + "'");
            const std::string key = kv.substr(0, eq);
            const std::string value = kv.substr(eq + 1);
            if (key == "p") {
                p.probability = parse_probability(value, token);
            } else if (key == "nth") {
                p.nth = parse_count(value, "nth", token);
            } else if (key == "every") {
                p.every = parse_count(value, "every", token);
            } else if (key == "kind") {
                p.kind = parse_kind(value, token);
            } else if (key == "attempts") {
                p.attempts = parse_count(value, "attempts", token);
            } else {
                throw std::invalid_argument("fault spec: unknown key '" + key +
                                            "' in '" + token + "'");
            }
        }

        const int triggers = (p.probability > 0.0 ? 1 : 0) +
                             (p.nth != 0 ? 1 : 0) + (p.every != 0 ? 1 : 0);
        if (triggers != 1)
            throw std::invalid_argument(
                "fault spec: set exactly one of p=/nth=/every= in '" + token +
                "'");
        out.push_back(std::move(p));
    }
    return out;
}

Injector& Injector::global() noexcept {
    static Injector instance;
    return instance;
}

void Injector::configure(std::vector<PointSpec> specs, std::uint64_t seed) {
    specs_ = std::move(specs);
    seed_ = seed;
    g_enabled.store(!specs_.empty(), std::memory_order_release);
}

void Injector::configure_spec(const std::string& spec, std::uint64_t seed) {
    configure(parse_fault_spec(spec), seed);
}

void Injector::reset() {
    g_enabled.store(false, std::memory_order_release);
    specs_.clear();
    seed_ = 0;
}

bool Injector::enabled() const noexcept {
    return g_enabled.load(std::memory_order_acquire);
}

std::optional<FaultKind> Injector::check(std::string_view point,
                                         std::uint64_t index,
                                         std::uint64_t attempt) const noexcept {
    if (!enabled()) return std::nullopt;
    for (const PointSpec& spec : specs_) {
        if (spec.point != point) continue;
        // A transient fault clears once the consumer has burnt `attempts`
        // retries on it; permanent and corruption faults never clear.
        if (spec.kind == FaultKind::kTransient && attempt >= spec.attempts)
            continue;
        bool fires = false;
        if (spec.nth != 0) {
            fires = index + 1 == spec.nth;
        } else if (spec.every != 0) {
            fires = (index + 1) % spec.every == 0;
        } else if (spec.probability > 0.0) {
            // Pure child stream of (seed, point, index): the schedule never
            // depends on invocation order, thread count, or retries.
            stats::Rng child =
                stats::Rng(seed_).split(hash_point(point)).split(index);
            fires = child.uniform() < spec.probability;
        }
        if (fires) return spec.kind;
    }
    return std::nullopt;
}

void Injector::maybe_inject(std::string_view point, std::uint64_t index,
                            std::uint64_t attempt) const {
    const std::optional<FaultKind> kind = check(point, index, attempt);
    // Slow faults carry no error to throw; only call sites that consult
    // fire()/DRE_FAULT_CHECK can slow themselves down.
    if (!kind || *kind == FaultKind::kSlow) return;
    // Runtime-named counters (one per point) — registry lookup is fine
    // here, the fault path is not a hot path.
    obs::registry().counter("fault.injected").add(1);
    obs::registry()
        .counter("fault.injected." + std::string(point))
        .add(1);
    throw FaultError(*kind, std::string(point), index);
}

std::optional<FaultKind> Injector::fire(std::string_view point,
                                        std::uint64_t index,
                                        std::uint64_t attempt) const {
    const std::optional<FaultKind> kind = check(point, index, attempt);
    if (!kind) return std::nullopt;
    obs::registry().counter("fault.injected").add(1);
    obs::registry()
        .counter("fault.injected." + std::string(point))
        .add(1);
    return kind;
}

void maybe_inject(std::string_view point, std::uint64_t index,
                  std::uint64_t attempt) {
    Injector::global().maybe_inject(point, index, attempt);
}

std::optional<FaultKind> fire(std::string_view point, std::uint64_t index,
                              std::uint64_t attempt) {
    return Injector::global().fire(point, index, attempt);
}

} // namespace dre::fault
