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
    const std::optional<double> v = parseFinite(it->second);
    if (!v)
        fatal("--", name, "=", it->second, " is not a finite number");
    return *v;
}

namespace {

/** Parse every item of --name's list with `parse`, or die naming it. */
template <typename T, typename Parse>
std::vector<T>
listOf(const Options &opts, const std::string &name, Parse parse,
       const char *what)
{
    std::vector<T> out;
    if (!opts.has(name))
        return out;
    const std::string text = opts.get(name);
    for (const std::string &item : splitCsv(text)) {
        const auto v = parse(item);
        if (!v)
            fatal("--", name, "=", text, " is not a list of ", what);
        out.push_back(*v);
    }
    if (out.empty())
        fatal("--", name, "=", text, " is not a list of ", what);
    return out;
}

} // namespace

std::vector<u64>
Options::getDecimalList(const std::string &name) const
{
    return listOf<u64>(*this, name, parseDecimal, "unsigned integers");
}

std::vector<double>
Options::getDoubleList(const std::string &name) const
{
    return listOf<double>(*this, name, parseFinite, "finite numbers");
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

std::optional<double>
parseFinite(const std::string &text)
{
    const char *begin = text.c_str();
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(begin, &end);
    if (end == begin || *end != '\0' || errno == ERANGE || !std::isfinite(v))
        return std::nullopt;
    return v;
}

std::vector<std::string>
splitCsv(const std::string &csv)
{
    std::vector<std::string> out;
    if (csv.empty())
        return out;
    size_t pos = 0;
    while (true) {
        const size_t comma = csv.find(',', pos);
        out.push_back(csv.substr(pos, comma - pos));
        if (comma == std::string::npos)
            return out;
        pos = comma + 1;
    }
}

} // namespace pccsim
