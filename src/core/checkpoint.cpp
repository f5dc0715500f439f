#include "core/checkpoint.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <unistd.h>

namespace dre::core {

std::uint64_t fnv1a(std::string_view bytes) {
    std::uint64_t hash = 1469598103934665603ull;
    for (const unsigned char b : bytes) {
        hash ^= b;
        hash *= 1099511628211ull;
    }
    return hash;
}

void write_file_atomically(const std::string& path, std::string_view bytes) {
    const std::string tmp = path + ".tmp";
    std::FILE* file = std::fopen(tmp.c_str(), "wb");
    if (file == nullptr)
        throw std::runtime_error("cannot create " + tmp + ": " +
                                 std::strerror(errno));
    const bool written =
        std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size() &&
        std::fflush(file) == 0 && ::fsync(::fileno(file)) == 0;
    if (std::fclose(file) != 0 || !written) {
        std::remove(tmp.c_str());
        throw std::runtime_error("write failed for " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        throw std::runtime_error("rename failed for " + path + ": " +
                                 std::strerror(errno));
}

CheckpointWriter::CheckpointWriter(std::string_view magic,
                                   std::uint64_t config_hash)
    : bytes_(magic) {
    put(config_hash);
}

void CheckpointWriter::operator()(const std::string& text) {
    put(text.size());
    bytes_ += text;
}

void CheckpointWriter::save(const std::string& path) {
    put(digest());
    write_file_atomically(path, bytes_);
}

void CheckpointWriter::put(std::uint64_t word) {
    bytes_.append(reinterpret_cast<const char*>(&word), sizeof word);
}

std::optional<CheckpointReader> CheckpointReader::open(
    const std::string& path, std::string_view magic, std::uint64_t config_hash,
    std::string context) {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    const int open_errno = errno;
    if (file == nullptr && open_errno == ENOENT) return std::nullopt;
    CheckpointReader reader(path, std::move(context));
    if (file == nullptr)
        reader.fail(std::string("cannot open: ") + std::strerror(open_errno));
    char block[1 << 16];
    std::size_t got = 0;
    while ((got = std::fread(block, 1, sizeof block, file)) > 0)
        reader.bytes_.append(block, got);
    const bool read_error = std::ferror(file) != 0;
    std::fclose(file);
    if (read_error) reader.fail("read failed");

    const std::string& bytes = reader.bytes_;
    if (bytes.size() < magic.size() + 16) reader.fail("truncated file");
    if (bytes.compare(0, magic.size(), magic) != 0)
        reader.fail("not a " + reader.context_ + " file");
    reader.end_ = bytes.size() - 8;
    std::uint64_t stored_sum = 0;
    std::memcpy(&stored_sum, bytes.data() + reader.end_, 8);
    if (fnv1a(std::string_view(bytes).substr(0, reader.end_)) != stored_sum)
        reader.fail("corrupt (checksum mismatch)");
    reader.pos_ = magic.size();
    if (reader.get() != config_hash)
        reader.fail("written by a run with a different configuration or "
                    "seed — refusing to resume");
    return reader;
}

CheckpointReader::CheckpointReader(std::string path, std::string context)
    : path_(std::move(path)), context_(std::move(context)) {}

void CheckpointReader::operator()(std::string& text) {
    const std::uint64_t size = get();
    if (size > end_ - pos_) fail("string longer than the file");
    text.assign(bytes_, pos_, static_cast<std::size_t>(size));
    pos_ += static_cast<std::size_t>(size);
}

void CheckpointReader::finish() const {
    if (pos_ != end_)
        fail(std::to_string(end_ - pos_) + " unread payload byte(s)");
}

void CheckpointReader::fail(const std::string& what) const {
    throw std::runtime_error(context_ + ": " + path_ + ": " + what);
}

std::uint64_t CheckpointReader::get() {
    if (end_ - pos_ < 8) fail("truncated file");
    std::uint64_t word = 0;
    std::memcpy(&word, bytes_.data() + pos_, 8);
    pos_ += 8;
    return word;
}

} // namespace dre::core
