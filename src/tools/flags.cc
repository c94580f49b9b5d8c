#include "tools/flags.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

namespace xicc {
namespace tools {

namespace {

constexpr size_t kWidth = 78;

const Flag* FindFlag(const Command& command, std::string_view name) {
  for (const Flag& flag : command.flags) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

// "--name" or "--name METAVAR", as usage shows it.
std::string Spelling(const Flag& flag) {
  return flag.metavar.empty() ? flag.name : flag.name + " " + flag.metavar;
}

// `text` is a base-10 integer inside the flag's range. Rejects empty values,
// trailing junk ("10x") and magnitudes beyond int64 (ERANGE) instead of
// wrapping or clamping them.
Status CheckInt(const Flag& flag, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const long long n = std::strtoll(text.c_str(), &end, 10);
  const bool number = end != text.c_str() && *end == '\0';
  if (number && errno == ERANGE) {
    return Status::InvalidArgument(flag.name + " value '" + text +
                                   "' is out of range");
  }
  if (!number || n < flag.min) {
    return Status::InvalidArgument(
        flag.name + " needs " +
        (flag.min > 0 ? "a positive integer" : "a non-negative integer") +
        ", got '" + text + "'");
  }
  if (n > flag.max) {
    return Status::InvalidArgument(flag.name + " must be <= " +
                                   std::to_string(flag.max));
  }
  return Status::Ok();
}

}  // namespace

std::string FlagValues::Str(std::string_view name,
                            std::string fallback) const {
  auto it = given.find(name);
  return it == given.end() ? fallback : it->second;
}

int64_t FlagValues::Int(std::string_view name) const {
  auto it = given.find(name);
  return it == given.end() ? 0 : std::strtoll(it->second.c_str(), nullptr, 10);
}

Result<FlagValues> ParseFlags(const Command& command,
                              const std::vector<std::string>& args) {
  auto fail = [&](const std::string& message) {
    return Status::InvalidArgument(message + " (run `" + command.name +
                                   " --help` for usage)");
  };
  FlagValues values;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      values.help = true;
      return values;
    }
    if (arg.size() < 2 || arg[0] != '-') {
      values.positional.push_back(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const Flag* flag = FindFlag(command, name);
    if (flag == nullptr) return fail("unknown flag '" + name + "'");
    if (flag->kind == Flag::Kind::kSwitch) {
      if (eq != std::string::npos) return fail(name + " takes no value");
      values.given[name] = "";
      continue;
    }
    std::string value;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < args.size()) {
      value = args[++i];
    } else {
      return fail(name + " needs a value");
    }
    if (flag->kind == Flag::Kind::kInt) {
      Status in_range = CheckInt(*flag, value);
      if (!in_range.ok()) return fail(in_range.message());
    }
    values.given[name] = std::move(value);
  }
  const size_t want = command.positionals.size();
  if (values.positional.size() > want) {
    return fail("unexpected argument '" + values.positional[want] + "'");
  }
  if (values.positional.size() < want) {
    std::string shape;
    for (const std::string& p : command.positionals) shape += " " + p;
    return fail(command.name + " needs" + shape);
  }
  return values;
}

std::string RenderSynopsis(const Command& command, std::string_view head,
                           size_t indent) {
  std::vector<std::string> tokens = command.positionals;
  for (const Flag& flag : command.flags) {
    tokens.push_back("[" + Spelling(flag) + "]");
  }
  std::string out(head);
  size_t column = out.size();
  for (const std::string& token : tokens) {
    if (column + 1 + token.size() > kWidth) {
      out += "\n" + std::string(indent, ' ') + token;
      column = indent + token.size();
    } else {
      out += " " + token;
      column += 1 + token.size();
    }
  }
  return out + "\n";
}

std::string RenderUsage(const Command& command) {
  const std::string head = "usage: " + command.name;
  std::string out = RenderSynopsis(command, head, head.size() + 1);
  if (!command.summary.empty()) out += "\n" + command.summary + "\n";
  if (command.flags.empty()) return out;
  size_t width = 0;
  for (const Flag& flag : command.flags) {
    width = std::max(width, Spelling(flag).size());
  }
  out += "\nflags:\n";
  for (const Flag& flag : command.flags) {
    std::string column = Spelling(flag);
    column.resize(width, ' ');
    out += "  " + column + "  " + flag.help + "\n";
  }
  return out;
}

}  // namespace tools
}  // namespace xicc
