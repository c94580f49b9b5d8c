// xiccd — the fault-tolerant constraint-checking daemon.
//
// Serves the newline-delimited JSON protocol of net/protocol.h on a
// loopback TCP port: interactive sessions (open/check/implies/commit/
// rollback/close), one-shot checks, batches, and live stats, with admission
// control and overload shedding in front and drain-on-SIGTERM behind. See
// DESIGN.md §13 and README.md for the protocol and operational story.

#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include "net/server.h"
#include "tools/cli.h"

namespace {

constexpr const char kUsage[] =
    "usage: xiccd [--port N] [--workers N] [--max-connections N]\n"
    "             [--max-inflight N] [--per-connection-inflight N]\n"
    "             [--max-sessions N] [--memo N] [--artifact-cache DIR]\n"
    "             [--idle-session-ttl-ms N] [--quarantine-faults N]\n"
    "             [--max-timeout-ms N] [--drain-deadline-ms N]\n"
    "             [--retry-after-ms N] [--max-line-bytes N] [--print-port]\n"
    "\n"
    "Serves the xicc consistency/implication engine over newline-delimited\n"
    "JSON on 127.0.0.1:<port> (default: an ephemeral port, printed at\n"
    "startup). SIGTERM/SIGINT drains gracefully. Every numeric flag takes\n"
    "a non-negative integer.\n";

xicc::net::Server* g_server = nullptr;

void HandleSignal(int /*sig*/) {
  // Async-signal-safe by construction: RequestShutdown is an atomic store
  // plus a self-pipe write.
  if (g_server != nullptr) g_server->RequestShutdown();
}

}  // namespace

int main(int argc, char** argv) {
  xicc::net::ServerOptions options;
  bool print_port = false;

  std::vector<std::string> args(argv + 1, argv + argc);
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto next = [&](std::string* value) {
      if (i + 1 >= args.size()) return false;
      *value = args[++i];
      return true;
    };
    auto numeric = [&](int64_t* out) {
      std::string value;
      if (!next(&value)) {
        std::fprintf(stderr, "xiccd: %s needs a value\n%s", arg.c_str(),
                     kUsage);
        return false;
      }
      // A daemon must not "helpfully" reinterpret a typo'd limit as some
      // other limit: negatives, junk and overflow are all rejected.
      auto parsed = xicc::tools::ParseIntFlag("xiccd", arg, value, 0,
                                              "a non-negative integer");
      if (!parsed.ok()) {
        std::fprintf(stderr, "xiccd: %s\n",
                     std::string(parsed.status().message()).c_str());
        return false;
      }
      *out = *parsed;
      return true;
    };
    int64_t v = 0;
    if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (arg == "--print-port") {
      print_port = true;
    } else if (arg == "--port") {
      if (!numeric(&v)) return 2;
      if (v > 65535) {
        std::fprintf(stderr, "xiccd: --port must be <= 65535\n%s", kUsage);
        return 2;
      }
      options.port = static_cast<uint16_t>(v);
    } else if (arg == "--workers") {
      if (!numeric(&v)) return 2;
      options.workers = static_cast<size_t>(v);
    } else if (arg == "--max-connections") {
      if (!numeric(&v)) return 2;
      options.max_connections = static_cast<size_t>(v);
    } else if (arg == "--max-inflight") {
      if (!numeric(&v)) return 2;
      options.max_inflight = static_cast<size_t>(v);
    } else if (arg == "--per-connection-inflight") {
      if (!numeric(&v)) return 2;
      options.per_connection_inflight = static_cast<size_t>(v);
    } else if (arg == "--max-sessions") {
      if (!numeric(&v)) return 2;
      options.max_sessions = static_cast<size_t>(v);
    } else if (arg == "--memo") {
      if (!numeric(&v)) return 2;
      options.memo_capacity = static_cast<size_t>(v);
    } else if (arg == "--artifact-cache") {
      if (!next(&options.artifact_dir)) {
        std::fprintf(stderr, "xiccd: --artifact-cache needs a directory\n%s",
                     kUsage);
        return 2;
      }
    } else if (arg == "--idle-session-ttl-ms") {
      if (!numeric(&v)) return 2;
      options.idle_session_ttl_ms = v;
    } else if (arg == "--quarantine-faults") {
      if (!numeric(&v)) return 2;
      options.quarantine_after_faults = static_cast<size_t>(v);
    } else if (arg == "--max-timeout-ms") {
      if (!numeric(&v)) return 2;
      options.max_timeout_ms = v;
    } else if (arg == "--drain-deadline-ms") {
      if (!numeric(&v)) return 2;
      options.drain_deadline_ms = v;
    } else if (arg == "--retry-after-ms") {
      if (!numeric(&v)) return 2;
      options.retry_after_ms = v;
    } else if (arg == "--max-line-bytes") {
      if (!numeric(&v)) return 2;
      options.max_line_bytes = static_cast<size_t>(v);
    } else {
      std::fprintf(stderr, "xiccd: unknown flag \"%s\"\n%s", arg.c_str(),
                   kUsage);
      return 2;
    }
  }

  auto server = xicc::net::Server::Start(options);
  if (!server.ok()) {
    std::fprintf(stderr, "xiccd: cannot start: %s\n",
                 std::string(server.status().message()).c_str());
    return 1;
  }
  g_server = server->get();

  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGPIPE, SIG_IGN);

  if (print_port) {
    // Machine-readable first line for test harnesses.
    std::printf("%u\n", static_cast<unsigned>((*server)->port()));
  } else {
    std::printf("xiccd: listening on 127.0.0.1:%u\n",
                static_cast<unsigned>((*server)->port()));
  }
  std::fflush(stdout);

  (*server)->Wait();

  const xicc::net::ServerStats stats = (*server)->stats();
  std::fprintf(stderr,
               "xiccd: drained (requests=%llu ok=%llu shed=%llu "
               "deadline=%llu cancelled=%llu invalid=%llu sessions=%zu)\n",
               static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.responses_ok),
               static_cast<unsigned long long>(stats.shed_requests),
               static_cast<unsigned long long>(
                   stats.responses_deadline_exceeded),
               static_cast<unsigned long long>(stats.responses_cancelled),
               static_cast<unsigned long long>(
                   stats.responses_invalid_argument),
               stats.open_sessions);
  g_server = nullptr;
  return 0;
}
