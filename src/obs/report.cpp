#include "obs/report.h"

#include <cinttypes>
#include <cmath>

namespace dre::obs {
namespace {

void append_double(std::string* out, double v) {
    if (!std::isfinite(v)) {
        // JSON has no Infinity/NaN literals.
        out->append("null");
        return;
    }
    char buffer[40];
    // Shortest round-trippable-enough form; integers print without ".0".
    if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
        std::fabs(v) < 1e15) {
        std::snprintf(buffer, sizeof(buffer), "%" PRId64,
                      static_cast<std::int64_t>(v));
    } else {
        std::snprintf(buffer, sizeof(buffer), "%.10g", v);
    }
    out->append(buffer);
}

} // namespace

std::string JsonWriter::escape(std::string_view text) {
    std::string out;
    out.reserve(text.size() + 2);
    for (const char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buffer[8];
                    std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                                  static_cast<unsigned>(c));
                    out += buffer;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

void JsonWriter::comma_for_value() {
    if (after_key_) {
        after_key_ = false;
        return;
    }
    if (!has_element_.empty()) {
        if (has_element_.back()) out_->push_back(',');
        has_element_.back() = true;
    }
}

void JsonWriter::begin_object() {
    comma_for_value();
    out_->push_back('{');
    has_element_.push_back(false);
}

void JsonWriter::end_object() {
    has_element_.pop_back();
    out_->push_back('}');
}

void JsonWriter::begin_array() {
    comma_for_value();
    out_->push_back('[');
    has_element_.push_back(false);
}

void JsonWriter::end_array() {
    has_element_.pop_back();
    out_->push_back(']');
}

void JsonWriter::key(std::string_view name) {
    if (!has_element_.empty()) {
        if (has_element_.back()) out_->push_back(',');
        has_element_.back() = true;
    }
    out_->push_back('"');
    out_->append(escape(name));
    out_->append("\":");
    after_key_ = true;
}

void JsonWriter::value(double v) {
    comma_for_value();
    append_double(out_, v);
}

void JsonWriter::value(std::uint64_t v) {
    comma_for_value();
    char buffer[24];
    std::snprintf(buffer, sizeof(buffer), "%" PRIu64, v);
    out_->append(buffer);
}

void JsonWriter::value(std::int64_t v) {
    comma_for_value();
    char buffer[24];
    std::snprintf(buffer, sizeof(buffer), "%" PRId64, v);
    out_->append(buffer);
}

void JsonWriter::value(bool v) {
    comma_for_value();
    out_->append(v ? "true" : "false");
}

void JsonWriter::value(std::string_view v) {
    comma_for_value();
    out_->push_back('"');
    out_->append(escape(v));
    out_->push_back('"');
}

// --- Report ----------------------------------------------------------------

Report::Section& Report::section(std::string_view name) {
    for (Section& s : sections_)
        if (s.name == name) return s;
    sections_.push_back({std::string(name), {}});
    return sections_.back();
}

void Report::set_value(std::string_view section_name, std::string_view key,
                       Value v) {
    Section& s = section(section_name);
    for (auto& [existing, value] : s.entries) {
        if (existing == key) {
            value = std::move(v);
            return;
        }
    }
    s.entries.emplace_back(std::string(key), std::move(v));
}

void Report::set(std::string_view section, std::string_view key, double value) {
    Value v;
    v.kind = Value::Kind::kDouble;
    v.d = value;
    set_value(section, key, std::move(v));
}

void Report::set(std::string_view section, std::string_view key,
                 std::uint64_t value) {
    Value v;
    v.kind = Value::Kind::kUint;
    v.u = value;
    set_value(section, key, std::move(v));
}

void Report::set(std::string_view section, std::string_view key,
                 std::int64_t value) {
    Value v;
    v.kind = Value::Kind::kInt;
    v.i = value;
    set_value(section, key, std::move(v));
}

void Report::set(std::string_view section, std::string_view key, bool value) {
    Value v;
    v.kind = Value::Kind::kBool;
    v.b = value;
    set_value(section, key, std::move(v));
}

void Report::set(std::string_view section, std::string_view key,
                 std::string_view value) {
    Value v;
    v.kind = Value::Kind::kString;
    v.s = std::string(value);
    set_value(section, key, std::move(v));
}

std::string Report::to_text() const {
    std::string out;
    char row[512];
    const auto append_row = [&](const char* format, const std::string& key,
                                auto value) {
        std::snprintf(row, sizeof(row), format, key.c_str(), value);
        out += row;
    };
    for (const Section& s : sections_) {
        if (!s.name.empty()) {
            out += '\n';
            out += s.name;
            out += ":\n";
        }
        for (const auto& [key, value] : s.entries) {
            switch (value.kind) {
                case Value::Kind::kDouble:
                    append_row("  %-28s %10.4f\n", key, value.d);
                    break;
                case Value::Kind::kInt:
                    append_row("  %-28s %10" PRId64 "\n", key, value.i);
                    break;
                case Value::Kind::kUint:
                    append_row("  %-28s %10" PRIu64 "\n", key, value.u);
                    break;
                case Value::Kind::kBool:
                    append_row("  %-28s %10s\n", key, value.b ? "yes" : "no");
                    break;
                case Value::Kind::kString:
                    append_row("  %-28s %s\n", key, value.s.c_str());
                    break;
            }
        }
    }
    return out;
}

void Report::print(std::FILE* out) const {
    const std::string text = to_text();
    std::fwrite(text.data(), 1, text.size(), out);
}

} // namespace dre::obs
