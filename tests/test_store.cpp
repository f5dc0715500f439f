// Round-trip, sharding, and corruption-rejection tests for dre::store.
//
// The round trips run over real scenario traces (wise / cdn / video /
// relay), and equality is *bitwise* — every double must survive the trip
// exactly, which is what the streaming determinism contract rests on.
#include "store/crc32c.h"
#include "store/reader.h"
#include "store/sharded.h"
#include "store/writer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cdn/scenario.h"
#include "core/environment.h"
#include "core/policy.h"
#include "relay/scenario.h"
#include "stats/rng.h"
#include "trace/csv.h"
#include "video/session.h"
#include "wise/scenario.h"

// Every operator new call of the process, for the allocation test below.
// Out of line, so the compiler never pairs an inlined free() with new.
std::atomic<std::size_t> g_operator_new_calls{0};

[[gnu::noinline]] void* operator new(std::size_t size) {
    g_operator_new_calls.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
    std::free(p);
}

namespace dre::store {
namespace {

namespace fs = std::filesystem;

class TempDir {
public:
    TempDir() {
        dir_ = fs::temp_directory_path() /
               ("dre_test_store_" + std::to_string(::testing::UnitTest::
                                                       GetInstance()
                                                           ->random_seed()) +
                "_" + ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }
    std::string path(const std::string& name) const {
        return (dir_ / name).string();
    }

private:
    fs::path dir_;
};

Trace wise_trace(std::size_t n) {
    wise::RequestRoutingEnv env{wise::WiseWorldConfig{}};
    const core::UniformRandomPolicy logging(env.num_decisions());
    stats::Rng rng(11);
    return core::collect_trace(env, logging, n, rng);
}

Trace cdn_trace(std::size_t n) {
    cdn::VideoQualityEnv env{cdn::CdnWorldConfig{}};
    const core::UniformRandomPolicy logging(env.num_decisions());
    stats::Rng rng(12);
    return core::collect_trace(env, logging, n, rng);
}

Trace relay_trace(std::size_t n) {
    relay::RelayEnv env{relay::RelayWorldConfig{}};
    const core::UniformRandomPolicy logging(env.num_decisions());
    stats::Rng rng(13);
    return core::collect_trace(env, logging, n, rng);
}

Trace video_trace(std::size_t sessions) {
    video::SimulatorConfig config;
    config.session.chunks = 30;
    config.epsilon = 0.2;
    const video::SessionSimulator sim(config,
                                      video::BitrateLadder::standard5());
    const video::BufferBasedAbr bba;
    stats::Rng rng(14);
    // Sessions with lognormal mean bandwidths around 2 Mbps.
    Trace trace;
    for (std::size_t s = 0; s < sessions; ++s) {
        const video::ConstantBandwidth bandwidth(2.0 * rng.lognormal(0.0, 0.5));
        for (const LoggedTuple& t : video::to_trace(sim.simulate(bba, bandwidth, rng)))
            trace.add(t);
    }
    return trace;
}

// cdn contexts widened past ClientContext::kInlineDims: 7 numeric (6 noise
// features) and 5 categorical (2 extra codes), so every context keeps its
// features in heap blocks.
Trace wide_cdn_trace(std::size_t n) {
    cdn::CdnWorldConfig world;
    world.noise_features = 6;
    cdn::VideoQualityEnv env{world};
    const core::UniformRandomPolicy logging(env.num_decisions());
    stats::Rng rng(15);
    Trace trace = core::collect_trace(env, logging, n, rng);
    for (LoggedTuple& t : trace) {
        t.context.categorical.push_back(
            static_cast<std::int32_t>(rng.uniform_index(5)));
        t.context.categorical.push_back(
            static_cast<std::int32_t>(rng.uniform_index(9)));
    }
    return trace;
}

void expect_bitwise_equal(const Trace& a, const Trace& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].decision, b[i].decision) << "tuple " << i;
        EXPECT_EQ(std::memcmp(&a[i].reward, &b[i].reward, sizeof(double)), 0)
            << "tuple " << i;
        EXPECT_EQ(std::memcmp(&a[i].propensity, &b[i].propensity,
                              sizeof(double)),
                  0)
            << "tuple " << i;
        EXPECT_EQ(a[i].state, b[i].state) << "tuple " << i;
        ASSERT_EQ(a[i].context.numeric.size(), b[i].context.numeric.size());
        for (std::size_t j = 0; j < a[i].context.numeric.size(); ++j)
            EXPECT_EQ(std::memcmp(&a[i].context.numeric[j],
                                  &b[i].context.numeric[j], sizeof(double)),
                      0)
                << "tuple " << i << " numeric " << j;
        EXPECT_EQ(a[i].context.categorical, b[i].context.categorical)
            << "tuple " << i;
    }
}

void check_round_trip(const Trace& trace, const TempDir& tmp,
                      const std::string& label) {
    SCOPED_TRACE(label);
    const std::string path = tmp.path(label + ".drt");
    // Small row groups force multiple groups per file.
    write_store_file(trace, path, StoreWriter::Options{256});
    const ShardedStore store({path});
    EXPECT_EQ(store.num_tuples(), trace.size());
    EXPECT_EQ(store.num_decisions(), trace.num_decisions());
    expect_bitwise_equal(store.read_all(), trace);

    // CSV -> drt -> CSV is byte-identical text (CSV writes %.17g-precision
    // doubles, and the store keeps them bit-exact in between).
    std::stringstream first;
    write_csv(trace, first);
    std::stringstream second;
    write_csv(store.read_all(), second);
    EXPECT_EQ(first.str(), second.str());
}

TEST(StoreRoundTrip, WiseScenario) {
    TempDir tmp;
    check_round_trip(wise_trace(700), tmp, "wise");
}

TEST(StoreRoundTrip, CdnScenario) {
    TempDir tmp;
    check_round_trip(cdn_trace(700), tmp, "cdn");
}

TEST(StoreRoundTrip, VideoScenario) {
    TempDir tmp;
    check_round_trip(video_trace(20), tmp, "video");
}

TEST(StoreRoundTrip, RelayScenario) {
    TempDir tmp;
    check_round_trip(relay_trace(700), tmp, "relay");
}

TEST(StoreRoundTrip, ContextsPastTheInlineCapacity) {
    TempDir tmp;
    const Trace trace = wide_cdn_trace(700);
    ASSERT_EQ(trace[0].context.numeric.size(), 7u);
    ASSERT_EQ(trace[0].context.categorical.size(), 5u);
    check_round_trip(trace, tmp, "wide");
}

TEST(StoreRoundTrip, EmptyTrace) {
    TempDir tmp;
    const std::string path = tmp.path("empty.drt");
    write_store_file(Trace{}, path);
    const ShardedStore store({path});
    EXPECT_EQ(store.num_tuples(), 0u);
    EXPECT_EQ(store.shard(0).num_row_groups(), 0u);
    EXPECT_TRUE(store.read_all().empty());
}

TEST(StoreRoundTrip, ZeroWidthContexts) {
    TempDir tmp;
    Trace trace;
    stats::Rng rng(5);
    for (int i = 0; i < 300; ++i) {
        LoggedTuple t;
        t.decision = static_cast<Decision>(rng.uniform_index(4));
        t.reward = rng.normal();
        t.propensity = rng.uniform(0.1, 1.0);
        t.state = i % 3;
        trace.add(std::move(t));
    }
    const std::string path = tmp.path("noctx.drt");
    write_store_file(trace, path, StoreWriter::Options{64});
    const ShardedStore store({path});
    EXPECT_EQ(store.schema().numeric_dims, 0u);
    EXPECT_EQ(store.schema().categorical_dims, 0u);
    expect_bitwise_equal(store.read_all(), trace);
}

TEST(StoreReaderTest, RandomAccessMatchesSlices) {
    TempDir tmp;
    const Trace trace = cdn_trace(500);
    const std::string path = tmp.path("slice.drt");
    write_store_file(trace, path, StoreWriter::Options{128});
    const ShardedStore reader({path});
    std::vector<LoggedTuple> rows;
    reader.read_rows(130, 250, rows); // spans three row groups
    ASSERT_EQ(rows.size(), 250u);
    for (std::size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(std::memcmp(&rows[i].reward, &trace[130 + i].reward,
                              sizeof(double)),
                  0)
            << "row " << i;
    EXPECT_THROW(reader.read_rows(400, 200, rows), std::out_of_range);
}

TEST(ShardedStoreTest, SplitAndConcatPreserveGlobalOrder) {
    TempDir tmp;
    const Trace trace = wise_trace(1000);
    const std::string single = tmp.path("single.drt");
    write_store_file(trace, single, StoreWriter::Options{128});

    const auto shard_paths =
        split_store(ShardedStore({single}), tmp.path("shard-"), 3,
                    StoreWriter::Options{128});
    ASSERT_EQ(shard_paths.size(), 3u);
    EXPECT_EQ(find_shards(tmp.path("shard-")), shard_paths);

    const ShardedStore sharded(shard_paths);
    EXPECT_EQ(sharded.num_shards(), 3u);
    EXPECT_EQ(sharded.num_tuples(), trace.size());
    EXPECT_EQ(sharded.num_decisions(), trace.num_decisions());
    expect_bitwise_equal(sharded.read_all(), trace);

    // Cross-shard random access.
    std::vector<LoggedTuple> rows;
    sharded.read_rows(300, 450, rows);
    ASSERT_EQ(rows.size(), 450u);
    for (std::size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(rows[i].decision, trace[300 + i].decision) << "row " << i;

    const std::string merged = tmp.path("merged.drt");
    concat_stores(sharded, merged, StoreWriter::Options{512});
    expect_bitwise_equal(ShardedStore({merged}).read_all(), trace);
}

// Decoding allocates per read and per row group, never per tuple: with
// contexts inside the inline capacity, 1k and 10k rows that span the same
// two row groups (one per shard) cost the same operator new calls.
TEST(ShardedStoreTest, ReadRowsAllocationsDoNotGrowWithRows) {
    TempDir tmp;
    const Trace trace = cdn_trace(12000);
    ASSERT_LE(trace[0].context.numeric.size(), ClientContext::kInlineDims);
    ASSERT_LE(trace[0].context.categorical.size(), ClientContext::kInlineDims);
    const std::string single = tmp.path("single.drt");
    write_store_file(trace, single);
    const ShardedStore sharded(
        split_store(ShardedStore({single}), tmp.path("shard-"), 2));
    ASSERT_EQ(sharded.shard_row_offset(1), 6000u);

    const auto operator_new_calls = [&](std::uint64_t begin,
                                        std::uint64_t count) {
        std::vector<LoggedTuple> rows;
        const std::size_t before = g_operator_new_calls.load();
        sharded.read_rows(begin, count, rows);
        const std::size_t calls = g_operator_new_calls.load() - before;
        EXPECT_EQ(rows.size(), count);
        for (std::size_t i = 0; i < rows.size(); ++i)
            EXPECT_EQ(rows[i].context, trace[begin + i].context) << "row " << i;
        return calls;
    };
    EXPECT_EQ(operator_new_calls(5500, 1000), operator_new_calls(1000, 10000));
}

TEST(ShardedStoreTest, MixedSchemasRejected) {
    TempDir tmp;
    write_store_file(cdn_trace(50), tmp.path("shard-00000.drt"));
    write_store_file(video_trace(2), tmp.path("shard-00001.drt"));
    try {
        ShardedStore(find_shards(tmp.path("shard-")));
        FAIL() << "expected schema mismatch";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("schema"), std::string::npos)
            << e.what();
    }
}

TEST(StoreWriterTest, SchemaMismatchAndDoubleFinalizeThrow) {
    TempDir tmp;
    const std::string path = tmp.path("writer.drt");
    StoreWriter writer(path, StoreSchema{2, 1});
    LoggedTuple wrong;
    wrong.propensity = 0.5;
    EXPECT_THROW(writer.append(wrong), std::invalid_argument);
    LoggedTuple right;
    right.propensity = 0.5;
    right.context.numeric = {1.0, 2.0};
    right.context.categorical = {3};
    writer.append(right);
    writer.finalize();
    EXPECT_THROW(writer.finalize(), std::logic_error);
    EXPECT_THROW(writer.append(right), std::logic_error);
    EXPECT_EQ(StoreReader(path).num_tuples(), 1u);
}

TEST(StoreWriterTest, AbandonedWriterLeavesNoFiles) {
    TempDir tmp;
    const std::string path = tmp.path("abandoned.drt");
    {
        StoreWriter writer(path, StoreSchema{0, 0});
        LoggedTuple t;
        t.propensity = 1.0;
        writer.append(t);
        // no finalize()
    }
    EXPECT_FALSE(fs::exists(path));
    EXPECT_FALSE(fs::exists(path + ".tmp"));
}

// --- Corruption rejection -------------------------------------------------

std::vector<char> slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void dump(const std::string& path, const std::vector<char>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Expects construction (or `probe`) to throw a runtime_error whose message
// contains `needle`.
template <typename Fn>
void expect_rejected(Fn&& fn, const std::string& needle) {
    try {
        fn();
        FAIL() << "expected rejection mentioning '" << needle << "'";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "actual message: " << e.what();
    }
}

class StoreCorruptionTest : public ::testing::Test {
protected:
    void SetUp() override {
        path_ = tmp_.path("corrupt.drt");
        write_store_file(cdn_trace(400), path_, StoreWriter::Options{128});
        bytes_ = slurp(path_);
        ASSERT_GT(bytes_.size(), 100u);
    }

    TempDir tmp_;
    std::string path_;
    std::vector<char> bytes_;
};

TEST_F(StoreCorruptionTest, BadMagicRejected) {
    bytes_[0] ^= 0x20;
    dump(path_, bytes_);
    expect_rejected([&] { StoreReader reader(path_); }, "bad magic");
}

TEST_F(StoreCorruptionTest, TruncatedFooterRejected) {
    bytes_.resize(bytes_.size() - 9); // clips the tail + footer end
    dump(path_, bytes_);
    expect_rejected([&] { StoreReader reader(path_); }, "end magic");
}

TEST_F(StoreCorruptionTest, TinyFileRejected) {
    dump(path_, std::vector<char>(bytes_.begin(), bytes_.begin() + 20));
    expect_rejected([&] { StoreReader reader(path_); }, "too small");
}

TEST_F(StoreCorruptionTest, FooterCorruptionRejected) {
    // The footer sits between the last row group and the 16-byte tail;
    // flip a byte of the chunk index itself.
    bytes_[bytes_.size() - kTailBytes - 10] ^= 0x01;
    dump(path_, bytes_);
    expect_rejected([&] { StoreReader reader(path_); }, "checksum mismatch");
}

TEST_F(StoreCorruptionTest, MisalignedGroupOffsetRejected) {
    // Move every row group 4 bytes down and re-seal the footer: all
    // checksums still hold, but no group starts on an 8-byte boundary, so
    // the zero-copy views would read doubles through misaligned pointers.
    const auto* in = reinterpret_cast<const unsigned char*>(bytes_.data());
    std::size_t pos = bytes_.size() - kTailBytes;
    const std::uint64_t footer = decode_value<std::uint64_t>(in, pos) + 4;
    std::vector<char> moved(bytes_.begin(), bytes_.begin() + kHeaderBytes);
    moved.insert(moved.end(), 4, '\0');
    moved.insert(moved.end(), bytes_.begin() + kHeaderBytes, bytes_.end());
    auto* out = reinterpret_cast<unsigned char*>(moved.data());
    pos = footer;
    const auto groups = decode_value<std::uint64_t>(out, pos);
    for (std::uint64_t g = 0; g < groups; ++g) {
        std::size_t at = footer + sizeof(std::uint64_t) + g * kFooterEntryBytes;
        std::size_t read = at;
        encode_value(out, at, decode_value<std::uint64_t>(out, read) + 4);
    }
    const std::size_t crc_len = footer_bytes(groups) - 2 * sizeof(std::uint32_t);
    pos = footer + crc_len;
    encode_value(out, pos, crc32c(out + footer, crc_len));
    pos = moved.size() - kTailBytes;
    encode_value(out, pos, footer);
    dump(path_, moved);
    expect_rejected([&] { StoreReader reader(path_); },
                    "corrupt row-group index entry 0");
}

TEST_F(StoreCorruptionTest, FlippedChunkByteNamesTheGroup) {
    const StoreReader meta(path_);
    ASSERT_GE(meta.num_row_groups(), 3u);
    const RowGroupInfo info = meta.row_group_info(1);
    bytes_[info.offset + 40] ^= 0x01; // payload byte inside group 1

    const std::string flipped = tmp_.path("flipped.drt");
    dump(flipped, bytes_);
    // Opening succeeds (payload CRCs are lazy); touching group 1 fails and
    // the error names it. Other groups stay readable.
    const ShardedStore reader({flipped});
    std::vector<LoggedTuple> rows;
    reader.read_rows(0, 128, rows); // group 0 is intact
    EXPECT_EQ(rows.size(), 128u);
    expect_rejected([&] { reader.read_rows(0, 300, rows); },
                    "row group 1 checksum mismatch");
}

} // namespace
} // namespace dre::store
