/**
 * @file
 * Selector/param-string parsing shared by the policy and translation-
 * hardware registries (os/policy_registry.hpp, tlb/hw_registry.hpp).
 *
 * A selector is `key` or `key:params`, where params is a comma-
 * separated `name=value` list: `pcc:promote=64,order=rr`. ParamMap
 * parses the param half once and hands typed lookups to the factory;
 * consumed-key tracking lets the registry reject typos (`promot=64`)
 * instead of silently ignoring them.
 */

#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/options.hpp"
#include "util/status.hpp"
#include "util/types.hpp"

namespace pccsim::util {

/** `key:params` split; params empty when there is no ':'. */
struct Selector
{
    std::string key;
    std::string params;

    /** Canonical form: `key` or `key:params`, exactly as parsed. */
    std::string
    str() const
    {
        return params.empty() ? key : key + ":" + params;
    }

    static Selector
    parse(std::string_view text)
    {
        Selector sel;
        const auto colon = text.find(':');
        if (colon == std::string_view::npos) {
            sel.key = std::string(text);
        } else {
            sel.key = std::string(text.substr(0, colon));
            sel.params = std::string(text.substr(colon + 1));
        }
        return sel;
    }
};

/** Parsed `name=value,name=value` list with consumed-key tracking. */
class ParamMap
{
  public:
    ParamMap() = default;

    /**
     * Parse a param string. Malformed entries (no '=', empty name)
     * fail the returned status; the map is still usable for the
     * well-formed prefix.
     */
    static ParamMap
    parse(std::string_view text, Status &status)
    {
        ParamMap map;
        size_t pos = 0;
        while (pos < text.size()) {
            size_t end = text.find(',', pos);
            if (end == std::string_view::npos)
                end = text.size();
            const std::string_view item = text.substr(pos, end - pos);
            pos = end + 1;
            if (item.empty())
                continue;
            const auto eq = item.find('=');
            if (eq == std::string_view::npos || eq == 0) {
                status.update(Status::error(
                    "malformed param '", std::string(item),
                    "' (expected name=value)"));
                continue;
            }
            map.entries_.push_back(
                {std::string(item.substr(0, eq)),
                 std::string(item.substr(eq + 1)), false});
        }
        return map;
    }

    bool
    has(std::string_view name) const
    {
        return find(name) != nullptr;
    }

    std::string
    get(std::string_view name, std::string fallback = "") const
    {
        const Entry *e = find(name);
        return e ? e->value : std::move(fallback);
    }

    /**
     * Unsigned decimal value (strict, as parseDecimal). A malformed
     * value yields the fallback and fails checkConsumed().
     */
    u64
    getU64(std::string_view name, u64 fallback) const
    {
        const Entry *e = find(name);
        if (!e)
            return fallback;
        const std::optional<u64> v = parseDecimal(e->value);
        if (!v)
            malformed(*e, kUnsigned);
        return v.value_or(fallback);
    }

    /** Finite number (strict, as parseFinite); see getU64. */
    double
    getDouble(std::string_view name, double fallback) const
    {
        const Entry *e = find(name);
        if (!e)
            return fallback;
        const std::optional<double> v = parseFinite(e->value);
        if (!v)
            malformed(*e, kFinite);
        return v.value_or(fallback);
    }

    bool
    getBool(std::string_view name, bool fallback) const
    {
        const Entry *e = find(name);
        if (!e)
            return fallback;
        return e->value == "1" || e->value == "true" ||
               e->value == "yes" || e->value == "on";
    }

    /**
     * Every factory calls this after pulling its params: any entry it
     * never looked up is a typo the user should hear about, not a
     * silently-defaulted knob.
     */
    Status
    checkConsumed() const
    {
        Status status = malformed_;
        for (const Entry &e : entries_) {
            if (!e.consumed) {
                status.update(Status::error("unknown param '", e.name,
                                            "'"));
            }
        }
        return status;
    }

    /**
     * Check every value against the type its name has in `grammar`
     * (the registry's `name=TYPE,...` string): N, POW2 and CYCLES
     * values must be unsigned decimals. Lets a config be rejected
     * before any factory reads it; names the param and its value.
     */
    Status
    checkTypes(std::string_view grammar) const
    {
        Status status;
        for (const Entry &e : entries_) {
            const std::string type = typeIn(grammar, e.name);
            if ((type == "N" || type == "POW2" || type == "CYCLES") &&
                !parseDecimal(e.value)) {
                status.update(Status::error("param '", e.name, "=",
                                            e.value, "' ", kUnsigned));
            }
        }
        return status;
    }

  private:
    static constexpr const char *kUnsigned = "is not an unsigned integer";
    static constexpr const char *kFinite = "is not a finite number";

    struct Entry
    {
        std::string name;
        std::string value;
        mutable bool consumed = false;
    };

    void
    malformed(const Entry &e, const char *what) const
    {
        malformed_.update(
            Status::error("param '", e.name, "=", e.value, "' ", what));
    }

    /** TYPE of `name=TYPE` in a grammar string, "" when absent. */
    static std::string
    typeIn(std::string_view grammar, std::string_view name)
    {
        size_t pos = 0;
        while (pos < grammar.size()) {
            size_t end = grammar.find(',', pos);
            if (end == std::string_view::npos)
                end = grammar.size();
            const std::string_view item = grammar.substr(pos, end - pos);
            pos = end + 1;
            const auto eq = item.find('=');
            if (eq != std::string_view::npos && item.substr(0, eq) == name)
                return std::string(item.substr(eq + 1));
        }
        return {};
    }

    const Entry *
    find(std::string_view name) const
    {
        for (const Entry &e : entries_) {
            if (e.name == name) {
                e.consumed = true;
                return &e;
            }
        }
        return nullptr;
    }

    std::vector<Entry> entries_;
    mutable Status malformed_; //!< first malformed typed lookup
};

/**
 * Nearest key for "did you mean" diagnostics. A query that is a
 * prefix of a key (or vice versa) wins outright — "victima" should
 * suggest "victima-reach" even though the edit distance is the whole
 * suffix. Otherwise falls back to edit distance, returning empty when
 * nothing is within half the query length (so arbitrary strings don't
 * get absurd suggestions).
 */
inline std::string
nearestKey(std::string_view query,
           const std::vector<std::string> &keys)
{
    if (!query.empty()) {
        std::string best_prefix;
        for (const std::string &key : keys) {
            const size_t n = std::min(query.size(), key.size());
            if (std::string_view(key).substr(0, n) !=
                query.substr(0, n)) {
                continue;
            }
            if (best_prefix.empty() || key.size() < best_prefix.size())
                best_prefix = key;
        }
        if (!best_prefix.empty())
            return best_prefix;
    }
    const auto distance = [](std::string_view a, std::string_view b) {
        std::vector<u32> prev(b.size() + 1), cur(b.size() + 1);
        for (size_t j = 0; j <= b.size(); ++j)
            prev[j] = static_cast<u32>(j);
        for (size_t i = 1; i <= a.size(); ++i) {
            cur[0] = static_cast<u32>(i);
            for (size_t j = 1; j <= b.size(); ++j) {
                const u32 sub =
                    prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
                cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
            }
            std::swap(prev, cur);
        }
        return prev[b.size()];
    };
    std::string best;
    u32 best_dist = ~0u;
    for (const std::string &key : keys) {
        const u32 d = distance(query, key);
        if (d < best_dist) {
            best_dist = d;
            best = key;
        }
    }
    if (best_dist > std::max<u32>(1, static_cast<u32>(query.size()) / 2))
        return {};
    return best;
}

} // namespace pccsim::util
