// Flag values and error exit codes shared by the command-line tools.
//
// Every valued flag takes its value through flag_value, so a flag with
// nothing after it prints `error: <flag> needs a value` and exits 2. Every
// numeric flag goes through parse_flag<T>: the whole token must be one
// number of type T as std::from_chars reads it — no sign on an unsigned
// type, no fraction or exponent on an integer type, no whitespace or
// trailing text, nothing outside T's range and, for a floating-point T,
// nothing non-finite. Anything else prints one `error: <flag> ...` line and
// exits 2, the tools' bad-argument code, so a typo never runs with a
// saturated, truncated or default value. Flags with a narrower domain
// (parse_unit_flag, parse_positive_flag, parse_replicate_count) are checked
// against it at the same point, so a value outside it never reaches the
// library or is clamped there. Errors thrown after parsing go through
// report_error, so every tool exits 2 for bad arguments and 3 for bad
// input or I/O.
#ifndef DRE_TOOLS_CLI_FLAGS_H
#define DRE_TOOLS_CLI_FLAGS_H

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "stats/bootstrap.h"

namespace dre::tools {

// The value of the valued flag at argv[i], advancing i past it.
inline const char* flag_value(int argc, char** argv, int& i,
                              std::string_view flag) {
    if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %.*s needs a value\n",
                     static_cast<int>(flag.size()), flag.data());
        std::exit(2);
    }
    return argv[++i];
}

// One `error:` line on stderr, then the exit code that classifies `e`: 2
// for bad arguments (std::invalid_argument), 3 for bad input or I/O (any
// other std::runtime_error), 4 for anything else.
inline int report_error(const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    if (dynamic_cast<const std::invalid_argument*>(&e) != nullptr) return 2;
    if (dynamic_cast<const std::runtime_error*>(&e) != nullptr) return 3;
    return 4;
}

// `text` read whole as a T, or nullopt.
template <typename T>
std::optional<T> read_number(std::string_view text) {
    static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
    T value{};
    const char* end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || stop != end) return std::nullopt;
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(value)) return std::nullopt;
    }
    return value;
}

[[noreturn]] inline void reject_flag(std::string_view flag,
                                     const std::string& expected,
                                     std::string_view text) {
    std::fprintf(stderr, "error: %.*s must be %s, got '%.*s'\n",
                 static_cast<int>(flag.size()), flag.data(), expected.c_str(),
                 static_cast<int>(text.size()), text.data());
    std::exit(2);
}

template <typename T>
T parse_flag(std::string_view flag, std::string_view text) {
    if (const std::optional<T> value = read_number<T>(text)) return *value;
    if constexpr (std::is_floating_point_v<T>) {
        reject_flag(flag, "a finite number", text);
    } else {
        reject_flag(flag,
                    "an integer in [" +
                        std::to_string(std::numeric_limits<T>::min()) + ", " +
                        std::to_string(std::numeric_limits<T>::max()) + "]",
                    text);
    }
}

// Which ends of [0, 1] a unit-interval flag admits.
enum class UnitInterval {
    kClosed,  // [0, 1]: a probability or a quantile
    kOpen,    // (0, 1): a CI level or a train fraction
    kOpenLow, // (0, 1]: a recency weight
};

// A number in the unit interval, checked when the flag is parsed: anything
// else exits 2 naming the flag and the interval, before any work runs.
inline double parse_unit_flag(std::string_view flag, std::string_view text,
                              UnitInterval ends = UnitInterval::kClosed) {
    static constexpr const char* kExpected[] = {
        "a number in [0, 1]", "a number in (0, 1)", "a number in (0, 1]"};
    const std::optional<double> value = read_number<double>(text);
    const bool inside =
        value &&
        (ends == UnitInterval::kClosed ? *value >= 0.0 : *value > 0.0) &&
        (ends == UnitInterval::kOpen ? *value < 1.0 : *value <= 1.0);
    if (!inside)
        reject_flag(flag, kExpected[static_cast<int>(ends)], text);
    return *value;
}

// A finite number > 0 (a softmax temperature, a refresh period), checked
// when the flag is parsed like parse_unit_flag.
inline double parse_positive_flag(std::string_view flag, std::string_view text) {
    const std::optional<double> value = read_number<double>(text);
    if (!value || !(*value > 0.0)) reject_flag(flag, "a number > 0", text);
    return *value;
}

// A bootstrap replicate count (dre_eval --ci, dre_tune --replicates,
// dre_loadgen --ci): 0, or 2..stats::kMaxBootstrapReplicates.
inline int parse_replicate_count(std::string_view flag, std::string_view text) {
    const std::optional<int> count = read_number<int>(text);
    if (!count || !stats::valid_replicate_count(*count))
        reject_flag(flag,
                    "0 or an integer in [2, " +
                        std::to_string(stats::kMaxBootstrapReplicates) + "]",
                    text);
    return *count;
}

} // namespace dre::tools

#endif // DRE_TOOLS_CLI_FLAGS_H
