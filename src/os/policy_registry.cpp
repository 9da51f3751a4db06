#include "os/policy_registry.hpp"

#include <algorithm>

#include "util/log.hpp"

// Static-archive linkage anchors: each policy translation unit defines
// one; referencing them here forces the linker to keep those archive
// members (and thus run their static registrars) in every binary that
// resolves policies. One line per builtin policy file.
PCCSIM_REFERENCE_LINK_ANCHOR(builtin_policies) // policies.cpp
PCCSIM_REFERENCE_LINK_ANCHOR(trident_policy)   // trident.cpp
PCCSIM_REFERENCE_LINK_ANCHOR(ubpf_policy)      // ubpf_policy.cpp

namespace pccsim::os {

PolicyRegistry &
PolicyRegistry::instance()
{
    static PolicyRegistry registry;
    return registry;
}

util::Status
PolicyRegistry::add(Entry entry)
{
    if (entry.key.empty() || !entry.factory)
        return util::Status::error("policy entry needs a key and factory");
    const auto clashes = [this](const std::string &name) {
        return find(name) != nullptr;
    };
    if (clashes(entry.key)) {
        return util::Status::error("duplicate policy key '", entry.key,
                                   "'");
    }
    for (const std::string &alias : entry.aliases) {
        if (clashes(alias)) {
            return util::Status::error("policy alias '", alias,
                                       "' shadows an existing key");
        }
    }
    entries_.push_back(std::move(entry));
    return {};
}

const PolicyRegistry::Entry *
PolicyRegistry::find(std::string_view key_or_alias) const
{
    for (const Entry &entry : entries_) {
        if (entry.key == key_or_alias)
            return &entry;
        for (const std::string &alias : entry.aliases)
            if (alias == key_or_alias)
                return &entry;
    }
    return nullptr;
}

std::vector<PolicyRegistry::Entry>
PolicyRegistry::entries() const
{
    std::vector<Entry> sorted = entries_;
    std::sort(sorted.begin(), sorted.end(),
              [](const Entry &a, const Entry &b) { return a.key < b.key; });
    return sorted;
}

std::vector<std::string>
PolicyRegistry::keys() const
{
    std::vector<std::string> keys;
    keys.reserve(entries_.size());
    for (const Entry &entry : entries_)
        keys.push_back(entry.key);
    std::sort(keys.begin(), keys.end());
    return keys;
}

util::Status
PolicyRegistry::unknownKeyError(std::string_view key) const
{
    const std::string hint = util::nearestKey(key, keys());
    if (hint.empty()) {
        return util::Status::error("unknown policy '", std::string(key),
                                   "' (--policy=list shows all keys)");
    }
    return util::Status::error("unknown policy '", std::string(key),
                               "' (did you mean '", hint, "'?)");
}

util::Status
PolicyRegistry::validateSelector(std::string_view selector) const
{
    const util::Selector sel = util::Selector::parse(selector);
    const Entry *entry = find(sel.key);
    if (!entry)
        return unknownKeyError(sel.key);
    util::Status status;
    const util::ParamMap params =
        util::ParamMap::parse(sel.params, status);
    if (const util::Status types = params.checkTypes(entry->grammar);
        !types.ok()) {
        status.update(util::Status::error("policy '", std::string(selector),
                                          "': ", types.toString()));
    }
    return status;
}

std::unique_ptr<Policy>
PolicyRegistry::make(std::string_view selector,
                     const sim::SystemConfig &cfg,
                     util::Status &status) const
{
    const util::Selector sel = util::Selector::parse(selector);
    const Entry *entry = find(sel.key);
    if (!entry) {
        status.update(unknownKeyError(sel.key));
        return nullptr;
    }
    const util::ParamMap params =
        util::ParamMap::parse(sel.params, status);
    if (!status.ok())
        return nullptr;
    std::unique_ptr<Policy> policy =
        entry->factory(params, cfg, status);
    status.update(params.checkConsumed());
    if (!status.ok()) {
        status.update(util::Status::error(
            "while building policy '", entry->key, "' (grammar: ",
            entry->grammar.empty() ? "no params" : entry->grammar,
            ")"));
        return nullptr;
    }
    return policy;
}

util::Status
PolicyRegistry::prepare(std::string_view selector,
                        sim::SystemConfig &cfg) const
{
    const util::Selector sel = util::Selector::parse(selector);
    const Entry *entry = find(sel.key);
    if (!entry)
        return unknownKeyError(sel.key);
    if (!entry->prepare)
        return {};
    util::Status status;
    const util::ParamMap params =
        util::ParamMap::parse(sel.params, status);
    if (!status.ok())
        return status;
    entry->prepare(params, cfg);
    return {};
}

PolicyRegistrar::PolicyRegistrar(PolicyRegistry::Entry entry)
{
    const std::string key = entry.key;
    if (util::Status status =
            PolicyRegistry::instance().add(std::move(entry));
        !status.ok()) {
        fatal("policy registration '", key, "': ", status.toString());
    }
}

} // namespace pccsim::os
