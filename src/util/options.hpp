/**
 * @file
 * Minimal command-line option parser for the benchmark harnesses and
 * example programs (--key=value and --flag forms).
 */

#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace pccsim {

/**
 * Parses "--key=value", "--key value", and bare "--flag" arguments.
 * Unknown positional arguments are collected in order.
 */
class Options
{
  public:
    Options(int argc, char **argv);

    /** True if --name was passed at all (with or without a value). */
    bool has(const std::string &name) const;

    /** String value of --name, or fallback when absent. */
    std::string get(const std::string &name,
                    const std::string &fallback = "") const;

    /**
     * Integer value of --name (decimal, 0x hex or 0 octal), or fallback
     * when absent or given without a value. A value that is not
     * wholly an in-range integer is fatal, naming the option.
     */
    i64 getInt(const std::string &name, i64 fallback) const;

    /**
     * Floating-point value of --name, or fallback when absent or given
     * without a value. A value that is not wholly a finite number is
     * fatal, naming the option.
     */
    double getDouble(const std::string &name, double fallback) const;

    /**
     * Comma-separated unsigned decimals (each as parseDecimal), or an
     * empty list when absent. An empty list or any malformed item is
     * fatal, naming the option.
     */
    std::vector<u64> getDecimalList(const std::string &name) const;

    /**
     * Comma-separated finite numbers (each as parseFinite), or an empty
     * list when absent. An empty list or any malformed item is fatal,
     * naming the option.
     */
    std::vector<double> getDoubleList(const std::string &name) const;

    /** Boolean: present with no value or value in {1,true,yes,on}. */
    bool getBool(const std::string &name, bool fallback = false) const;

    const std::vector<std::string> &positional() const { return positional_; }

  private:
    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
};

/**
 * Strict unsigned decimal: the whole of `text` must be digits and fit
 * in a u64. Returns nullopt otherwise (including for "" and "-1").
 */
std::optional<u64> parseDecimal(const std::string &text);

/**
 * Strict finite number: the whole of `text` must parse as a double
 * that is neither infinite nor NaN. Returns nullopt otherwise
 * (including for "", "4.5%" and "1e999").
 */
std::optional<double> parseFinite(const std::string &text);

/** Split on commas: "a,,b" gives "a", "", "b"; "" gives nothing. */
std::vector<std::string> splitCsv(const std::string &csv);

} // namespace pccsim
