#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace xicc {
namespace tools {

/// The `xicc` command-line interface, exposed as a function so the test
/// suite can drive it. `args` excludes argv[0]. Returns the process exit
/// code: 0 success / "yes", 1 negative verdict ("inconsistent", "not
/// implied", "document rejected"), 2 usage or input error.
///
/// The commands and their flags are declared once, in the flag table of
/// cli.cc (see tools/flags.h); `xicc help` lists them all and
/// `xicc <command> --help` prints one command's flags. File arguments use
/// the dtd_parser.h / constraint_parser.h syntaxes.
int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err);

}  // namespace tools
}  // namespace xicc
