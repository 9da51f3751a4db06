/**
 * @file
 * String-keyed registry of translation-hardware backends — the open
 * end of the `--hw=` selector.
 *
 * A backend is a named transform applied to the SystemConfig before
 * the System builds its cores: it reshapes TLB geometry, timing, and
 * cache parameters to model alternative translation hardware (e.g.
 * the Victima-style extra-reach backend that converts L2 data-cache
 * ways into L2 TLB capacity). The empty selector and the registered
 * "default" key both leave the config untouched, so every legacy run
 * is bit-identical to the pre-registry code.
 *
 * Registration mirrors os/policy_registry.hpp: a static HwRegistrar in
 * the backend's own translation unit plus a link-anchor reference in
 * hw_registry.cpp (see that header for why static archives need the
 * anchor pair).
 */

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "util/params.hpp"
#include "util/status.hpp"

namespace pccsim::sim {
struct SystemConfig; // backends mutate it; full definition in factories
}

namespace pccsim::tlb {

class HwRegistry
{
  public:
    /** Apply the backend's transform to the run's config. */
    using Apply = util::Status (*)(const util::ParamMap &params,
                                   sim::SystemConfig &cfg);

    struct Entry
    {
        std::string key;         //!< canonical selector key
        std::string description; //!< one line for `--hw=list`
        std::string grammar;     //!< param grammar, "" = no params
        Apply apply = nullptr;
    };

    static HwRegistry &instance();

    /** Register an entry; duplicate keys fail loudly. */
    util::Status add(Entry entry);

    const Entry *find(std::string_view key) const;

    /** All entries, sorted by key. */
    std::vector<Entry> entries() const;

    /** Sorted canonical keys. */
    std::vector<std::string> keys() const;

    /**
     * Resolve a selector and apply its transform to `cfg`. The empty
     * selector is the identity. Unknown keys and bad params return an
     * error (with a nearest-key suggestion) and leave cfg untouched.
     */
    util::Status apply(std::string_view selector,
                       sim::SystemConfig &cfg) const;

    /** Status for an unknown key, with a "did you mean" hint. */
    util::Status unknownKeyError(std::string_view key) const;

    /**
     * Validate a selector without applying (SystemConfig-free): the
     * key, the param syntax, and every numeric param value against the
     * entry's grammar.
     */
    util::Status validateSelector(std::string_view selector) const;

  private:
    HwRegistry() = default;
    std::vector<Entry> entries_;
};

/** Static registrar: construct one per backend translation unit. */
struct HwRegistrar
{
    explicit HwRegistrar(HwRegistry::Entry entry);
};

} // namespace pccsim::tlb
