// The checkpoint container, shared by streaming evaluation ("DRECKPT1",
// core/streaming.cpp) and the online tuner ("DRETUNE1", tune/tuner.cpp):
//
//   magic (8 bytes) | u64 config hash | payload | u64 fnv1a(all preceding)
//
// Fields are 8-byte words in host byte order: integers as u64 (signed ones
// two's complement), doubles as their bit patterns, strings as a u64 length
// and the bytes, lists as a u64 count and the items. A resumed run therefore
// restarts from exactly the interrupted run's state on the machine that
// wrote it.
//
// Each user lists its payload once, as a template over the I/O object, and
// calls that list with a CheckpointWriter to save and a CheckpointReader to
// load: `io(field)` writes or reads one field, `io.list(seq, item)` one
// list, and `io.expect(value, name)` a word the run's configuration already
// fixes (written, or read and compared). The reader bounds-checks every
// read, so a damaged or crafted file ends in a std::runtime_error naming
// it, never in undefined behavior; the caller still has to check the values
// it indexes with after loading.
//
// write_file_atomically is the one tmp + fsync + rename writer for files
// written whole from finished bytes: checkpoints, and the CLI tools'
// reports, journals and port files.
#ifndef DRE_CORE_CHECKPOINT_H
#define DRE_CORE_CHECKPOINT_H

#include <bit>
#include <concepts>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace dre::core {

// The 64-bit FNV-1a recurrence behind config hashes and checksums. Its
// offset basis is a digit short of the published one; every checkpoint
// written so far hashes with it, so it stays.
std::uint64_t fnv1a(std::string_view bytes);

// Writes `bytes` to `path + ".tmp"`, fsyncs it and renames it over `path`,
// so a reader (or a resume after a kill) sees the old file or the new one,
// never a torn one. Throws std::runtime_error naming the file on failure.
void write_file_atomically(const std::string& path, std::string_view bytes);

namespace detail {
// What a list is read into: maps take their entries as mutable pairs.
template <typename Seq> struct ListItem {
    using type = typename Seq::value_type;
};
template <typename K, typename V> struct ListItem<std::map<K, V>> {
    using type = std::pair<K, V>;
};
} // namespace detail

class CheckpointWriter {
public:
    // Fields only: config hashes are the digest() of such a writer.
    CheckpointWriter() = default;
    // A container: starts with `magic` (8 bytes) and `config_hash`.
    CheckpointWriter(std::string_view magic, std::uint64_t config_hash);

    template <std::integral T> void operator()(T value) {
        put(static_cast<std::uint64_t>(value));
    }
    void operator()(double value) { put(std::bit_cast<std::uint64_t>(value)); }
    void operator()(const std::string& text);

    template <std::integral T> void expect(T value, const char* /*name*/) {
        (*this)(value);
    }
    template <typename Seq, typename Item> void list(Seq& seq, Item&& item) {
        (*this)(seq.size());
        for (auto& x : seq) item(x);
    }
    template <typename Seq> void list(Seq& seq) {
        list(seq, [this](const auto& x) { (*this)(x); });
    }

    std::uint64_t digest() const { return fnv1a(bytes_); }
    // Appends the checksum and writes the container with
    // write_file_atomically. Call once, on a container writer.
    void save(const std::string& path);

private:
    void put(std::uint64_t word);

    std::string bytes_;
};

class CheckpointReader {
public:
    // Loads the container at `path` and checks its magic, checksum and
    // config hash. Returns nullopt when no file exists there; throws
    // std::runtime_error, prefixed with `context` and naming the file, when
    // it cannot be read or a check fails.
    static std::optional<CheckpointReader> open(const std::string& path,
                                                std::string_view magic,
                                                std::uint64_t config_hash,
                                                std::string context);

    template <std::integral T> void operator()(T& value) {
        value = static_cast<T>(get());
    }
    void operator()(double& value) { value = std::bit_cast<double>(get()); }
    void operator()(std::string& text);

    template <std::integral T> void expect(T value, const char* name) {
        if (get() != static_cast<std::uint64_t>(value))
            fail(std::string(name) + " mismatch");
    }
    // The count is checked against the bytes left (every item is at least
    // one word) before any item is read.
    template <typename Seq, typename Item> void list(Seq& seq, Item&& item) {
        const std::uint64_t count = get();
        if (count > (end_ - pos_) / 8) fail("list longer than the file");
        seq.clear();
        for (std::uint64_t i = 0; i < count; ++i) {
            typename detail::ListItem<Seq>::type x{};
            item(x);
            seq.insert(seq.end(), std::move(x));
        }
    }
    template <typename Seq> void list(Seq& seq) {
        list(seq, [this](auto& x) { (*this)(x); });
    }

    // Throws unless the payload was read to its last byte.
    void finish() const;
    [[noreturn]] void fail(const std::string& what) const;

private:
    CheckpointReader(std::string path, std::string context);
    std::uint64_t get();

    std::string path_;
    std::string context_;
    std::string bytes_;
    std::size_t pos_ = 0;
    std::size_t end_ = 0; // where the payload stops and the checksum starts
};

} // namespace dre::core

#endif // DRE_CORE_CHECKPOINT_H
