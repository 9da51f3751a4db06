#include "util/options.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "util/log.hpp"

namespace pccsim {

Options::Options(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        arg = arg.substr(2);
        auto eq = arg.find('=');
        if (eq != std::string::npos) {
            values_[arg.substr(0, eq)] = arg.substr(eq + 1);
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0)
                   != 0) {
            values_[arg] = argv[++i];
        } else {
            values_[arg] = "";
        }
    }
}

bool
Options::has(const std::string &name) const
{
    return values_.count(name) != 0;
}

std::string
Options::get(const std::string &name, const std::string &fallback) const
{
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
}

i64
Options::getInt(const std::string &name, i64 fallback) const
{
    auto it = values_.find(name);
    if (it == values_.end() || it->second.empty())
        return fallback;
    const char *text = it->second.c_str();
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(text, &end, 0);
    if (end == text || *end != '\0' || errno == ERANGE)
        fatal("--", name, "=", it->second, " is not an integer");
    return v;
}

double
Options::getDouble(const std::string &name, double fallback) const
{
    auto it = values_.find(name);
    if (it == values_.end() || it->second.empty())
        return fallback;
    const char *text = it->second.c_str();
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE || !std::isfinite(v))
        fatal("--", name, "=", it->second, " is not a finite number");
    return v;
}

bool
Options::getBool(const std::string &name, bool fallback) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    const std::string &v = it->second;
    return v.empty() || v == "1" || v == "true" || v == "yes" || v == "on";
}

std::optional<u64>
parseDecimal(const std::string &text)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        return std::nullopt;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), nullptr, 10);
    if (errno == ERANGE)
        return std::nullopt;
    return v;
}

} // namespace pccsim
