#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "base/status.h"

namespace xicc {
namespace tools {

/// The `xicc` command-line interface, exposed as a function so the test
/// suite can drive it. `args` excludes argv[0]. Returns the process exit
/// code: 0 success / "yes", 1 negative verdict ("inconsistent", "not
/// implied", "document rejected"), 2 usage or input error.
///
/// Subcommands:
///   compile  <dtd> [--artifact-cache DIR] [--out FILE]
///   check    <dtd> <constraints> [--witness FILE] [--min-nodes N] [--big-m]
///   implies  <dtd> <constraints> <phi> [--counterexample FILE]
///   validate <dtd> <constraints> <document.xml>
///   witness  <dtd> <constraints> [--min-nodes N]      (print to stdout)
///   classify <dtd> <constraints>
///   simplify <dtd>
///   encode   <dtd> <constraints>
///   closure  <dtd> <constraints> [--no-inclusions]
///   idrefs   <dtd>
/// File arguments use the dtd_parser.h / constraint_parser.h syntaxes.
int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err);

/// Parses the value `text` of flag `name` as a base-10 integer >= `min` —
/// the one integer-flag parser of `xicc` and `xiccd`. Rejects empty values,
/// trailing junk ("10x") and magnitudes beyond int64 (ERANGE). The error
/// names the flag and the `expected` shape, and points at `program --help`.
Result<int64_t> ParseIntFlag(const std::string& program,
                             const std::string& name, const std::string& text,
                             int64_t min, const std::string& expected);

}  // namespace tools
}  // namespace xicc
