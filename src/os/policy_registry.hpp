/**
 * @file
 * String-keyed, self-registering factory registry for promotion
 * policies — the open end of the `--policy=` selector.
 *
 * A selector is `key` or `key:params` (util/params.hpp grammar); the
 * factory behind `key` receives the parsed ParamMap plus the run's
 * SystemConfig and builds the policy. Selecting a key with no params
 * constructs exactly what the legacy PolicyKind switch in
 * sim/system.cpp used to build, so enum-selected and string-selected
 * runs are bit-identical; params override the SystemConfig defaults.
 *
 * Adding a contender is one translation unit:
 *
 *   // src/os/my_policy.cpp
 *   PCCSIM_DEFINE_LINK_ANCHOR(my_policy)
 *   namespace { const PolicyRegistrar reg{{
 *       "my-policy", "one-line description", "knob=N",
 *       [](const util::ParamMap &pm, const sim::SystemConfig &,
 *          util::Status &status) -> std::unique_ptr<Policy> { ... }}};
 *   }
 *
 * plus one PCCSIM_REFERENCE_LINK_ANCHOR(my_policy) line in
 * policy_registry.cpp. The anchor pair (util/link_anchor.hpp) is what
 * makes self-registration survive static-archive linking: without the
 * reference the linker would drop the registrar's archive member — and
 * the whole policy — silently. The registry's own translation unit is
 * always linked (the System resolves policies through it), so
 * anchoring there guarantees every registrar runs before main().
 */

#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "os/policy.hpp"
#include "util/link_anchor.hpp"
#include "util/params.hpp"
#include "util/status.hpp"

namespace pccsim::sim {
struct SystemConfig; // full definition only needed by factories
}

namespace pccsim::os {

class PolicyRegistry
{
  public:
    using Factory = std::unique_ptr<Policy> (*)(
        const util::ParamMap &params, const sim::SystemConfig &cfg,
        util::Status &status);

    /**
     * Optional pre-construction hook, run by the System *before* the
     * hardware is built: the one place a policy can request hardware
     * support (e.g. Trident enabling the 1GB PCC). Only runs for
     * string-selected policies, so legacy enum-driven runs are
     * untouched.
     */
    using Prepare = void (*)(const util::ParamMap &params,
                             sim::SystemConfig &cfg);

    struct Entry
    {
        std::string key;         //!< canonical selector key
        std::string description; //!< one line for `--policy=list`
        std::string grammar;     //!< param grammar, "" = no params
        Factory factory = nullptr;
        /**
         * PolicyKind value this key shims (static_cast-able), or -1
         * for registry-only contenders. Keeps the legacy enum round-
         * trip (`parsePolicyKind`/`to_string`) resolving through the
         * registry without the registry depending on sim headers.
         */
        int legacy_kind = -1;
        std::vector<std::string> aliases; //!< parse-only short names
        /**
         * False for keys a generic sweep cannot run meaningfully
         * (trace-replay needs a recorded trace in the config).
         */
        bool sweepable = true;
        Prepare prepare = nullptr;
    };

    static PolicyRegistry &instance();

    /**
     * Register an entry. Duplicate keys (or aliases shadowing an
     * existing key/alias) fail loudly — a silently replaced policy
     * would corrupt every spec key minted under the old meaning.
     */
    util::Status add(Entry entry);

    /** Key or alias lookup; nullptr when unknown. */
    const Entry *find(std::string_view key_or_alias) const;

    /** All entries, sorted by key. */
    std::vector<Entry> entries() const;

    /** Sorted canonical keys (for listings and suggestions). */
    std::vector<std::string> keys() const;

    /**
     * Build the policy a selector names. Unknown keys and bad params
     * fail `status` (with a nearest-key suggestion) and return null.
     */
    std::unique_ptr<Policy> make(std::string_view selector,
                                 const sim::SystemConfig &cfg,
                                 util::Status &status) const;

    /**
     * Run the selector's pre-construction hook (no-op when the entry
     * has none). Returns an error for unknown keys / bad params.
     */
    util::Status prepare(std::string_view selector,
                         sim::SystemConfig &cfg) const;

    /** Status for an unknown key, with a "did you mean" hint. */
    util::Status unknownKeyError(std::string_view key) const;

    /**
     * Validate a selector without constructing (SystemConfig-free): the
     * key, the param syntax, and every numeric param value against the
     * entry's grammar.
     */
    util::Status validateSelector(std::string_view selector) const;

  private:
    PolicyRegistry() = default;
    std::vector<Entry> entries_;
};

/** Static registrar: construct one per policy translation unit. */
struct PolicyRegistrar
{
    explicit PolicyRegistrar(PolicyRegistry::Entry entry);
};

} // namespace pccsim::os
