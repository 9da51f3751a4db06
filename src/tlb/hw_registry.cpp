#include "tlb/hw_registry.hpp"

#include <algorithm>

#include "util/link_anchor.hpp"
#include "util/log.hpp"

// Keep the backend translation units alive through static-archive
// linking (see util/link_anchor.hpp for the anchor mechanism).
PCCSIM_REFERENCE_LINK_ANCHOR(victima_reach) // victima_reach.cpp

namespace pccsim::tlb {

HwRegistry &
HwRegistry::instance()
{
    static HwRegistry registry;
    return registry;
}

util::Status
HwRegistry::add(Entry entry)
{
    if (entry.key.empty() || !entry.apply)
        return util::Status::error("hw entry needs a key and apply fn");
    if (find(entry.key)) {
        return util::Status::error("duplicate hw key '", entry.key,
                                   "'");
    }
    entries_.push_back(std::move(entry));
    return {};
}

const HwRegistry::Entry *
HwRegistry::find(std::string_view key) const
{
    for (const Entry &entry : entries_)
        if (entry.key == key)
            return &entry;
    return nullptr;
}

std::vector<HwRegistry::Entry>
HwRegistry::entries() const
{
    std::vector<Entry> sorted = entries_;
    std::sort(sorted.begin(), sorted.end(),
              [](const Entry &a, const Entry &b) { return a.key < b.key; });
    return sorted;
}

std::vector<std::string>
HwRegistry::keys() const
{
    std::vector<std::string> keys;
    keys.reserve(entries_.size());
    for (const Entry &entry : entries_)
        keys.push_back(entry.key);
    std::sort(keys.begin(), keys.end());
    return keys;
}

util::Status
HwRegistry::unknownKeyError(std::string_view key) const
{
    const std::string hint = util::nearestKey(key, keys());
    if (hint.empty()) {
        return util::Status::error("unknown hw backend '",
                                   std::string(key),
                                   "' (--hw=list shows all keys)");
    }
    return util::Status::error("unknown hw backend '", std::string(key),
                               "' (did you mean '", hint, "'?)");
}

util::Status
HwRegistry::validateSelector(std::string_view selector) const
{
    if (selector.empty())
        return {};
    const util::Selector sel = util::Selector::parse(selector);
    const Entry *entry = find(sel.key);
    if (!entry)
        return unknownKeyError(sel.key);
    util::Status status;
    const util::ParamMap params =
        util::ParamMap::parse(sel.params, status);
    if (const util::Status types = params.checkTypes(entry->grammar);
        !types.ok()) {
        status.update(util::Status::error("hw backend '", std::string(selector),
                                          "': ", types.toString()));
    }
    return status;
}

util::Status
HwRegistry::apply(std::string_view selector, sim::SystemConfig &cfg) const
{
    if (selector.empty())
        return {};
    const util::Selector sel = util::Selector::parse(selector);
    const Entry *entry = find(sel.key);
    if (!entry)
        return unknownKeyError(sel.key);
    util::Status status;
    const util::ParamMap params =
        util::ParamMap::parse(sel.params, status);
    if (!status.ok())
        return status;
    status.update(entry->apply(params, cfg));
    status.update(params.checkConsumed());
    if (!status.ok()) {
        status.update(util::Status::error(
            "while applying hw backend '", entry->key, "' (grammar: ",
            entry->grammar.empty() ? "no params" : entry->grammar,
            ")"));
    }
    return status;
}

namespace {

// The identity backend: selecting `--hw=default` is exactly the same
// run as not passing --hw at all, so baselines can name it explicitly.
const HwRegistrar default_hw{{
    "default",
    "baseline translation hardware from SystemConfig (identity)",
    "",
    [](const util::ParamMap &, sim::SystemConfig &) -> util::Status {
        return {};
    },
}};

} // namespace

HwRegistrar::HwRegistrar(HwRegistry::Entry entry)
{
    const std::string key = entry.key;
    if (util::Status status = HwRegistry::instance().add(std::move(entry));
        !status.ok()) {
        fatal("hw registration '", key, "': ", status.toString());
    }
}

} // namespace pccsim::tlb
