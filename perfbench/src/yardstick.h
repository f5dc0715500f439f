// The host yardstick: a fixed piece of work owned by the benchmark, timed
// next to every set-up and sample, so that a window's timings can be put on
// one host-speed scale.
//
// The shared host this benchmark runs on changes speed by up to 2x in phases
// lasting seconds to minutes (README, "Host noise"): far more than the
// regressions the bounds must catch, and too slow for a 30 s window to
// average out. A set-up or sample timed next to the yardstick is rescaled to
// the speed at which the yardstick takes kYardstickRefMs, so a phase that
// slows both cancels, while a change to the program moves only the sample.
//
// The yardstick's work never changes with the repository: it calls no
// library code and perfbench.cmake compiles it with fixed flags. Its mix
// mirrors an evaluation's: random reads from an L1-resident block (the
// bootstrap), a pass over heap-scattered rows with a hash lookup per row
// (the estimator sweeps) and fresh buffers written once (the set-ups), run
// on as many threads as the evaluation pool has.
#ifndef PERFBENCH_YARDSTICK_H
#define PERFBENCH_YARDSTICK_H

#include <cstddef>
#include <vector>

namespace perfbench {

// The yardstick's time at the reference host speed, close to its median on
// the 4-core host the bounds were set on.
inline constexpr double kYardstickRefMs = 4.5;

// Wall time of one yardstick run on `threads` threads, in milliseconds.
double yardstick_ms(std::size_t threads);

// `ms[i]` at the reference host speed: scaled by kYardstickRefMs over the
// median of the yardstick runs at positions i-8..i+8 (`yard_ms[i]` is the
// run timed next to `ms[i]`), so one noisy yardstick run moves nothing.
std::vector<double> at_reference_speed(const std::vector<double>& ms,
                                       const std::vector<double>& yard_ms);

} // namespace perfbench

#endif // PERFBENCH_YARDSTICK_H
