/**
 * @file
 * Minimal ordered JSON object writer for the benchmark's output lines.
 */

#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char ch : s) {
        const unsigned char c = static_cast<unsigned char>(ch);
        if (c == '"' || c == '\\') {
            out += '\\';
            out += ch;
        } else if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

/** Full-precision number; non-finite values become null. */
inline std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    return buf;
}

class JsonObject
{
  public:
    JsonObject &
    raw(const std::string &key, const std::string &json)
    {
        if (!body_.empty())
            body_ += ", ";
        body_ += jsonString(key) + ": " + json;
        return *this;
    }
    JsonObject &num(const std::string &key, double v)
    {
        return raw(key, jsonNumber(v));
    }
    JsonObject &integer(const std::string &key, unsigned long long v)
    {
        return raw(key, std::to_string(v));
    }
    JsonObject &str(const std::string &key, const std::string &v)
    {
        return raw(key, jsonString(v));
    }
    JsonObject &boolean(const std::string &key, bool v)
    {
        return raw(key, v ? "true" : "false");
    }
    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

inline std::string
jsonArray(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (size_t i = 0; i < items.size(); ++i)
        out += (i ? ", " : "") + items[i];
    return out + "]";
}

} // namespace perfbench
