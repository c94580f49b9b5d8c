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
#include "tools/flags.h"

namespace {

using xicc::tools::IntFlag;
using xicc::tools::StringFlag;
using xicc::tools::SwitchFlag;

// Each flag maps onto the net::ServerOptions field of the same meaning.
const xicc::tools::Command kXiccd = {
    "xiccd",
    {},
    {IntFlag("--port", 0, "loopback port (0: an ephemeral port)", 65535),
     IntFlag("--workers", 0, "worker threads (0: hardware concurrency)"),
     IntFlag("--max-connections", 1, "connection cap; excess are shed"),
     IntFlag("--max-inflight", 0, "in-flight request cap (0: 4 x workers)"),
     IntFlag("--per-connection-inflight", 0,
             "pipelined requests per connection (0: 1)"),
     IntFlag("--max-sessions", 1, "session-table capacity"),
     IntFlag("--memo", 0, "session/one-shot memo capacity (0: bypass)"),
     StringFlag("--artifact-cache", "DIR",
                "compiled-DTD artifact directory (default: memory only)"),
     IntFlag("--idle-session-ttl-ms", 0, "evict after N idle ms (0: never)"),
     IntFlag("--quarantine-faults", 0, "quarantine after N faults (0: never)"),
     IntFlag("--max-timeout-ms", 0, "request timeout ceiling (0: none)"),
     IntFlag("--drain-deadline-ms", 0, "shutdown grace for in-flight work"),
     IntFlag("--retry-after-ms", 0, "retry hint when shedding (0: none)"),
     IntFlag("--max-line-bytes", 1, "largest request frame, in bytes"),
     SwitchFlag("--print-port", "print just the port number on line one")},
    "Serves the xicc consistency/implication engine over newline-delimited\n"
    "JSON on 127.0.0.1:<port> (default: an ephemeral port, printed at\n"
    "startup). SIGTERM/SIGINT drains gracefully."};

xicc::net::Server* g_server = nullptr;

void HandleSignal(int /*sig*/) {
  // Async-signal-safe by construction: RequestShutdown is an atomic store
  // plus a self-pipe write.
  if (g_server != nullptr) g_server->RequestShutdown();
}

}  // namespace

int main(int argc, char** argv) {
  auto flags =
      xicc::tools::ParseFlags(kXiccd, std::vector<std::string>(argv + 1,
                                                               argv + argc));
  if (!flags.ok()) {
    std::fprintf(stderr, "xiccd: %s\n", flags.status().message().c_str());
    return 2;
  }
  if (flags->help) {
    std::fputs(xicc::tools::RenderUsage(kXiccd).c_str(), stdout);
    return 0;
  }
  xicc::net::ServerOptions options;
  flags->Assign("--port", &options.port);
  flags->Assign("--workers", &options.workers);
  flags->Assign("--max-connections", &options.max_connections);
  flags->Assign("--max-inflight", &options.max_inflight);
  flags->Assign("--per-connection-inflight", &options.per_connection_inflight);
  flags->Assign("--max-sessions", &options.max_sessions);
  flags->Assign("--memo", &options.memo_capacity);
  options.artifact_dir = flags->Str("--artifact-cache");
  flags->Assign("--idle-session-ttl-ms", &options.idle_session_ttl_ms);
  flags->Assign("--quarantine-faults", &options.quarantine_after_faults);
  flags->Assign("--max-timeout-ms", &options.max_timeout_ms);
  flags->Assign("--drain-deadline-ms", &options.drain_deadline_ms);
  flags->Assign("--retry-after-ms", &options.retry_after_ms);
  flags->Assign("--max-line-bytes", &options.max_line_bytes);
  const bool print_port = flags->Has("--print-port");

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
