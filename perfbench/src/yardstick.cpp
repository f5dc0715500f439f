#include "yardstick.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <vector>

#include "support.h"

namespace perfbench {

namespace {

// Rounds of each part per thread: about 2, 2 and 0.4 ms on the reference
// host.
constexpr int kGatherRounds = 240;
constexpr int kSweepRounds = 8;
constexpr int kBuffers = 24;

// The working sets match the evaluations': a 4096-value bootstrap chunk, and
// rows spanning about 2.5 MiB with their heap parts, as eval_batch's 10k-tuple
// trace and its q̂ do (more than one core's 2 MiB L2).
constexpr std::size_t kBlock = 4096; // doubles read at random: 32 KiB
constexpr std::size_t kRows = 20000;
constexpr std::size_t kBufferDoubles = 32768; // 256 KiB: malloc maps it fresh

std::uint64_t xorshift(std::uint64_t& x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

struct Row {
    std::vector<double> numeric;
    std::vector<std::int32_t> categorical;
    double reward = 0.0;
};

// Built once, read-only afterwards, shared by every thread.
struct Data {
    std::vector<double> block;
    std::vector<Row> rows;
    std::unordered_map<std::uint64_t, int> table;

    Data() : block(kBlock), rows(kRows) {
        for (std::size_t i = 0; i < kBlock; ++i)
            block[i] = std::sin(static_cast<double>(i));
        std::uint64_t x = 12345;
        for (Row& row : rows) {
            row.numeric = {static_cast<double>(xorshift(x) % 1000) / 7.0,
                           static_cast<double>(xorshift(x) % 1000) / 3.0};
            row.categorical = {static_cast<std::int32_t>(xorshift(x) % 8),
                               static_cast<std::int32_t>(xorshift(x) % 5)};
            row.reward = static_cast<double>(xorshift(x) % 100) / 10.0;
        }
        for (std::uint64_t k = 0; k < 40; ++k)
            table[k] = static_cast<int>(k % 12);
    }
};

const Data& data() {
    static const Data d;
    return d;
}

double gather(const Data& d) {
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    double acc[4] = {0, 0, 0, 0};
    for (int r = 0; r < kGatherRounds; ++r)
        for (std::size_t i = 0; i < kBlock; ++i)
            acc[i & 3] += d.block[((xorshift(x) >> 32) * kBlock) >> 32];
    return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

double sweep(const Data& d) {
    double acc = 0.0;
    for (int r = 0; r < kSweepRounds; ++r)
        for (const Row& row : d.rows) {
            const auto key = static_cast<std::uint64_t>(
                row.categorical[0] * 5 + row.categorical[1]);
            const auto it = d.table.find(key);
            const int decision = it == d.table.end() ? 0 : it->second;
            const double weight =
                decision == (row.categorical[0] & 3) ? 12.0 : 0.0;
            acc += weight * (row.reward - 0.5 * row.numeric[0] /
                                              (1.0 + row.numeric[1]));
        }
    return acc;
}

double buffers() {
    double acc = 0.0;
    for (int r = 0; r < kBuffers; ++r) {
        std::vector<double> buffer(kBufferDoubles);
        for (std::size_t i = 0; i < buffer.size(); i += 8)
            buffer[i] = static_cast<double>(i);
        acc += buffer[buffer.size() / 2];
    }
    return acc;
}

double work() {
    const Data& d = data();
    return gather(d) + sweep(d) + buffers();
}

} // namespace

double yardstick_ms(std::size_t threads) {
    data(); // built outside the timed run
    volatile double sink = 0.0;
    const std::int64_t start = now_ns();
    std::vector<std::thread> helpers;
    std::vector<double> results(threads, 0.0);
    for (std::size_t t = 1; t < threads; ++t)
        helpers.emplace_back([&results, t] { results[t] = work(); });
    results[0] = work();
    for (std::thread& h : helpers) h.join();
    const double ms = ms_between(start, now_ns());
    for (const double r : results) sink = sink + r;
    return ms;
}

std::vector<double> at_reference_speed(const std::vector<double>& ms,
                                       const std::vector<double>& yard_ms) {
    constexpr std::size_t kReach = 8;
    std::vector<double> out(ms.size());
    for (std::size_t i = 0; i < ms.size(); ++i) {
        const std::size_t lo = i < kReach ? 0 : i - kReach;
        const std::size_t hi = std::min(yard_ms.size(), i + kReach + 1);
        const std::vector<double> around(yard_ms.begin() + lo,
                                         yard_ms.begin() + hi);
        out[i] = ms[i] * kYardstickRefMs / median(around);
    }
    return out;
}

} // namespace perfbench
