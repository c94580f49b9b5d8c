#pragma once

// The one flag table of the xicc binaries (xicc, xiccd, xicc_analyze). A
// command declares its positionals and flags once; ParseFlags checks a
// command line against that declaration, integer ranges included, before
// any file is opened, and RenderUsage prints the synopsis and flag list
// from the same table. See DESIGN.md §4 "One flag table".

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"

namespace xicc {
namespace tools {

/// One flag: a switch, a string value, or an integer in [min, max].
struct Flag {
  enum class Kind { kSwitch, kString, kInt };
  std::string name;     ///< "--timeout-ms".
  Kind kind = Kind::kSwitch;
  std::string metavar;  ///< Value placeholder in usage: "FILE", "DIR", "N".
  std::string help;     ///< One line for the flag list.
  int64_t min = 0;
  int64_t max = std::numeric_limits<int64_t>::max();
};

inline Flag SwitchFlag(std::string name, std::string help) {
  return {std::move(name), Flag::Kind::kSwitch, "", std::move(help)};
}
inline Flag StringFlag(std::string name, std::string metavar,
                       std::string help) {
  return {std::move(name), Flag::Kind::kString, std::move(metavar),
          std::move(help)};
}
inline Flag IntFlag(std::string name, int64_t min, std::string help,
                    int64_t max = std::numeric_limits<int64_t>::max()) {
  return {std::move(name), Flag::Kind::kInt, "N", std::move(help), min, max};
}

/// A command line's shape: exactly these positionals, any of these flags.
struct Command {
  std::string name;                      ///< "xiccd", "xicc check".
  std::vector<std::string> positionals;  ///< "<dtd>", "<constraints>".
  std::vector<Flag> flags;
  std::string summary;  ///< Hand-written prose under the synopsis.
};

/// One parsed command line. Integer values are already range-checked; a
/// flag given twice keeps its last value; a switch maps to "".
struct FlagValues {
  bool help = false;  ///< --help / -h was given; nothing else was checked.
  std::vector<std::string> positional;
  std::map<std::string, std::string, std::less<>> given;

  bool Has(std::string_view name) const { return given.count(name) > 0; }
  /// A flag's value, `fallback` (0 for Int) when it was not given.
  std::string Str(std::string_view name, std::string fallback = "") const;
  int64_t Int(std::string_view name) const;
  /// Stores an integer flag into `field` when it was given.
  template <typename T>
  void Assign(std::string_view name, T* field) const {
    if (Has(name)) *field = static_cast<T>(Int(name));
  }
};

/// Parses `args` (argv after the program and command names) against
/// `command`: `--name value` and `--name=value`, switches, integer ranges,
/// positional arity, unknown flags. Every error is one kInvalidArgument
/// naming the flag and ending "(run `<command.name> --help` for usage)".
Result<FlagValues> ParseFlags(const Command& command,
                              const std::vector<std::string>& args);

/// `head` followed by the positionals and "[--flag METAVAR]" per flag,
/// wrapped at 78 columns with continuation lines indented `indent` spaces.
std::string RenderSynopsis(const Command& command, std::string_view head,
                           size_t indent);

/// "usage: " + synopsis, the summary, and one aligned line per flag.
std::string RenderUsage(const Command& command);

}  // namespace tools
}  // namespace xicc
