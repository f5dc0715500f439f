// Report sink for `dre::obs`.
//
// Two pieces:
//
//  * JsonWriter — a minimal streaming JSON serializer (objects, arrays,
//    escaped strings, automatic commas). Shared by the chrome-trace
//    exporter and the serve journal, so every JSON artifact in the repo
//    comes out of one implementation.
//
//  * Report — an ordered section -> key -> value document rendered as
//    aligned human-readable text: the one format shared by the dre_eval
//    CLI, the examples and the serve Result payload.
#ifndef DRE_OBS_REPORT_H
#define DRE_OBS_REPORT_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace dre::obs {

class JsonWriter {
public:
    // Appends to `out` (not owned).
    explicit JsonWriter(std::string* out) : out_(out) {}

    void begin_object();
    void end_object();
    void begin_array();
    void end_array();
    void key(std::string_view name);
    void value(double v);
    void value(std::uint64_t v);
    void value(std::int64_t v);
    void value(int v) { value(static_cast<std::int64_t>(v)); }
    void value(bool v);
    void value(std::string_view v);

    static std::string escape(std::string_view text);

private:
    void comma_for_value();

    std::string* out_;
    // One entry per open container: whether it already holds an element.
    std::vector<bool> has_element_;
    bool after_key_ = false;
};

// Ordered two-level document. Section "" holds top-level rows (rendered
// without a heading).
class Report {
public:
    void set(std::string_view section, std::string_view key, double value);
    void set(std::string_view section, std::string_view key, std::uint64_t value);
    void set(std::string_view section, std::string_view key, std::int64_t value);
    void set(std::string_view section, std::string_view key, int value) {
        set(section, key, static_cast<std::int64_t>(value));
    }
    void set(std::string_view section, std::string_view key, bool value);
    void set(std::string_view section, std::string_view key, std::string_view value);
    void set(std::string_view section, std::string_view key, const char* value) {
        set(section, key, std::string_view(value));
    }
    // Aligned text: "section:" headings, "  key  value" rows. print() emits
    // exactly these bytes — the serve Result payload carries to_text() so a
    // server response can be byte-diffed against the CLI's stdout.
    std::string to_text() const;
    void print(std::FILE* out = stdout) const;

private:
    struct Value {
        enum class Kind { kDouble, kInt, kUint, kBool, kString };
        Kind kind = Kind::kDouble;
        double d = 0.0;
        std::int64_t i = 0;
        std::uint64_t u = 0;
        bool b = false;
        std::string s;
    };
    struct Section {
        std::string name;
        std::vector<std::pair<std::string, Value>> entries;
    };

    Section& section(std::string_view name);
    void set_value(std::string_view section_name, std::string_view key, Value v);

    std::vector<Section> sections_;
};

} // namespace dre::obs

#endif // DRE_OBS_REPORT_H
