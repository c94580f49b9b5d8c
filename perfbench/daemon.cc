// daemon_authoring: the xiccd user. An in-process net::Server (2 workers,
// artifact directory populated in set-up) on loopback serves a closed loop
// of 2 connections. Each connection opens a session on a generated
// auction or catalog DTD and cycles through a script: mostly session
// checks of 1–4-constraint Σ-deltas, commit/rollback pairs, implies, and
// one-shot checks carrying full DTD text drawn from a pool larger than the
// server's 16-entry artifact memory tier. Every response is compared with
// the verdict an in-process SpecSession gave in set-up. The whole workload
// runs on one CPU (see PinToOneCpu): its round trips are ~0.1 ms, and
// across idle vCPUs of a shared VM they mostly measured how fast the host
// woke them, which swung throughput 2.4× between runs.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>
#include <tuple>

#include "constraints/constraint_parser.h"
#include "core/artifact_cache.h"
#include "dtd/dtd_parser.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "workloads.h"
#include "workloads/generators.h"

namespace xbench {
namespace {

using xicc::net::JsonValue;

constexpr size_t kConnections = 2;
constexpr size_t kServerWorkers = 2;
constexpr size_t kMemoryTier = 16;

enum Kind : size_t {
  kCheckSession,
  kCommit,
  kRollback,
  kImplies,
  kCheckOneShot,
  kPing,
  kKinds
};
const char* const kSpanNames[kKinds] = {
    "net.Call.check_session", "net.Call.commit",  "net.Call.rollback",
    "net.Call.implies",       "net.Call.check_oneshot", "net.Call.ping"};

struct Op {
  Kind kind = kCheckSession;
  xicc::ConstraintSet sigma;  ///< check / commit delta.
  std::string text;           ///< sigma or phi text on the wire.
  size_t oneshot = 0;         ///< Pool index of a one-shot check.
  bool expect = false;        ///< Reference verdict (consistent / implied).
};

struct OneShot {
  std::string dtd_text;
  std::string sigma_text;
  bool expect = false;
};

struct Script {
  std::string dtd_text;
  std::vector<Op> ops;
};

struct DaemonSetup {
  std::vector<Script> scripts;
  std::vector<OneShot> pool;
  std::string artifact_dir;
  std::unique_ptr<xicc::net::Server> server;
  std::vector<xicc::net::Client> clients;
  std::vector<int64_t> sessions;
};

/// Replays `script` through an in-process session opened on the same DTD
/// text the daemon parses, filling in each op's reference verdict and
/// re-checking every consistent verdict's witness against committed ∪ Σ.
void ComputeReferences(Script* script, Gate* gate) {
  auto dtd = xicc::ParseDtd(script->dtd_text);
  if (!dtd.ok()) {
    gate->Fail("session DTD text does not parse: " + dtd.status().message());
    return;
  }
  auto compiled = xicc::CompileDtd(*dtd);
  if (!compiled.ok()) {
    gate->Fail("CompileDtd: " + compiled.status().message());
    return;
  }
  xicc::SpecSession session(*compiled);
  for (Op& op : script->ops) {
    switch (op.kind) {
      case kCheckSession: {
        auto r = session.Check(op.sigma);
        if (!r.ok()) {
          gate->Fail("reference check: " + r.status().message());
          break;
        }
        op.expect = r->consistent;
        if (r->consistent) {
          xicc::ConstraintSet combined = session.committed();
          for (const auto& c : op.sigma.constraints()) combined.Add(c);
          const std::string why =
              r->witness.has_value()
                  ? RecheckWitness(*r->witness, *dtd, combined)
                  : "consistent reference verdict without a witness";
          if (!why.empty()) gate->Fail(why);
        }
        break;
      }
      case kCommit: {
        const xicc::Status s = session.Commit(op.sigma);
        if (!s.ok()) gate->Fail("reference commit: " + s.message());
        break;
      }
      case kRollback:
        session.Rollback();
        break;
      case kImplies: {
        auto phi = xicc::ParseConstraint(op.text);
        auto r = phi.ok() ? session.Implies(*phi)
                          : xicc::Result<xicc::ImplicationResult>(phi.status());
        if (!r.ok()) {
          gate->Fail("reference implies: " + r.status().message());
          break;
        }
        op.expect = r->implied;
        break;
      }
      default:
        break;
    }
  }
}

/// One-shot pool entry `i`: AuctionDtd or CatalogDtd at a size no other
/// entry has, so every entry is a distinct artifact, with a seeded
/// 1–4-constraint Σ, and its reference verdict. Naturalistic specs keep the
/// solver's share small, as in an authoring tool; the hard end of the NP
/// cell is lip_hard's job.
OneShot MakeOneShot(uint64_t seed, size_t i, Gate* gate) {
  const size_t size = 1 + i / 2;
  const xicc::Dtd dtd = i % 2 == 0 ? xicc::workloads::AuctionDtd(size)
                                   : xicc::workloads::CatalogDtd(size);
  const xicc::ConstraintSet sigma = xicc::workloads::SigmaDeltaBatch(
      dtd, seed, /*count=*/1, /*min_constraints=*/1, /*max_constraints=*/4,
      /*dup_percent=*/0)[0];
  OneShot shot{DoctypeText(dtd), SigmaText(sigma), false};
  auto parsed = xicc::ParseDtd(shot.dtd_text);
  if (!parsed.ok()) {
    gate->Fail("one-shot DTD text does not parse: " + parsed.status().message());
    return shot;
  }
  auto r = xicc::CheckConsistency(*parsed, sigma);
  if (!r.ok()) {
    gate->Fail("one-shot reference: " + r.status().message());
    return shot;
  }
  shot.expect = r->consistent;
  if (r->consistent) {
    const std::string why =
        r->witness.has_value() ? RecheckWitness(*r->witness, *parsed, sigma)
                               : "consistent one-shot without a witness";
    if (!why.empty()) gate->Fail(why);
  }
  return shot;
}

/// The op mix of one 12-op block: 8 session checks, one implies, one
/// one-shot, and a commit/rollback pair with a check between them. A fixed
/// mix keeps the share of each request kind equal across seeds; the seed
/// picks the Σ-deltas, the implied constraints and the one-shot order.
constexpr Kind kBlock[] = {kCheckSession, kCheckSession, kImplies,
                           kCheckSession, kCheckOneShot, kCheckSession,
                           kCommit,       kCheckSession, kRollback,
                           kCheckSession, kCheckSession, kCheckSession};

Script MakeScript(const Config& cfg, size_t conn, size_t pool_size) {
  Rng rng(Mix(cfg.seed, 100 + conn));
  const size_t scale = cfg.smoke ? 2 : 4;
  const xicc::Dtd dtd = conn % 2 == 0 ? xicc::workloads::AuctionDtd(scale)
                                      : xicc::workloads::CatalogDtd(scale);
  Script script;
  script.dtd_text = DoctypeText(dtd);
  const size_t blocks = cfg.smoke ? 2 : 100;
  const std::vector<xicc::ConstraintSet> deltas =
      xicc::workloads::SigmaDeltaBatch(dtd, Mix(cfg.seed, 200 + conn),
                                       blocks * 9, /*min_constraints=*/1,
                                       /*max_constraints=*/4,
                                       /*dup_percent=*/25);
  size_t next = 0;
  // One-shots walk the pool in a fresh random order per pass.
  std::vector<size_t> order;
  for (size_t b = 0; b < blocks; ++b) {
    for (Kind kind : kBlock) {
      Op op;
      op.kind = kind;
      if (kind == kCheckSession || kind == kCommit) {
        op.sigma = deltas[next++];
        op.text = SigmaText(op.sigma);
      } else if (kind == kImplies) {
        const xicc::ConstraintSet phi = xicc::workloads::RandomUnarySigma(
            dtd, rng.Next(), /*keys=*/b % 2, /*fks=*/1 - b % 2);
        op.text = ConstraintText(phi.constraints().back());
      } else if (kind == kCheckOneShot) {
        if (order.empty()) {
          for (size_t i = 0; i < pool_size; ++i) order.push_back(i);
          for (size_t i = pool_size; i > 1; --i) {
            std::swap(order[i - 1], order[rng.Below(i)]);
          }
        }
        op.oneshot = order.back();
        order.pop_back();
      }
      script.ops.push_back(std::move(op));
    }
  }
  return script;
}

JsonValue Request(const char* verb, int64_t id) {
  JsonValue v = JsonValue::Object();
  v.Set("verb", JsonValue::Str(verb)).Set("id", JsonValue::Int(id));
  return v;
}

DaemonSetup Setup(const Config& cfg, Gate* gate) {
  DaemonSetup s;
  const size_t pool_size = cfg.smoke ? kMemoryTier + 2 : 40;
  for (size_t i = 0; i < pool_size; ++i) {
    s.pool.push_back(MakeOneShot(Mix(cfg.seed, 1000 + i), i, gate));
  }
  for (size_t c = 0; c < kConnections; ++c) {
    s.scripts.push_back(MakeScript(cfg, c, pool_size));
    ComputeReferences(&s.scripts.back(), gate);
    for (Op& op : s.scripts.back().ops) {
      if (op.kind == kCheckOneShot) op.expect = s.pool[op.oneshot].expect;
    }
  }

  // Populate the artifact directory through the library's own cache, so
  // one-shots the memory tier misses are served by the mmap tier.
  s.artifact_dir = cfg.work_dir + "/artifacts";
  std::error_code ignored;
  std::filesystem::remove_all(s.artifact_dir, ignored);
  std::filesystem::create_directories(s.artifact_dir, ignored);
  {
    xicc::ArtifactCache cache({s.artifact_dir, kMemoryTier});
    auto populate = [&](const std::string& text) {
      auto dtd = xicc::ParseDtd(text);
      if (!dtd.ok() || !cache.GetOrCompile(*dtd).ok()) {
        gate->Fail("artifact population failed");
      }
    };
    for (const OneShot& shot : s.pool) populate(shot.dtd_text);
    for (const Script& script : s.scripts) populate(script.dtd_text);
  }

  xicc::net::ServerOptions options;
  options.workers = kServerWorkers;
  options.artifact_dir = s.artifact_dir;
  options.artifact_memory_capacity = kMemoryTier;
  auto server = xicc::net::Server::Start(options);
  if (!server.ok()) {
    gate->Fail("server start: " + server.status().message());
    return s;
  }
  s.server = std::move(*server);
  for (size_t c = 0; c < kConnections; ++c) {
    xicc::net::ClientOptions client_options;
    client_options.port = s.server->port();
    auto client = xicc::net::Client::Connect(client_options);
    if (!client.ok()) {
      gate->Fail("connect: " + client.status().message());
      s.server.reset();
      return s;
    }
    JsonValue open = Request("open", 0);
    open.Set("dtd", JsonValue::Str(s.scripts[c].dtd_text));
    auto opened = client->Call(open);
    if (!opened.ok() || !opened->GetBool("ok", false)) {
      gate->Fail("open failed: " +
                 (opened.ok() ? opened->Dump() : opened.status().message()));
      s.server.reset();
      return s;
    }
    s.sessions.push_back(opened->GetInt("session", 0));
    s.clients.push_back(std::move(*client));
  }
  return s;
}

/// One recorded request/response pair from the first pass over a script,
/// replayed through the parse and encode layers after the run.
struct Exchange {
  Kind kind;
  size_t op;  ///< Index into the connection's script.
  double rtt_ms;
  std::string request;
  std::string response;
};

struct ConnResult {
  std::vector<double> latencies;  ///< Verdict round trips (no pings).
  std::vector<double> rtt[kKinds];
  size_t attempted = 0, failed = 0, ok = 0;
  double bytes = 0;
  std::vector<Exchange> exchanges;
  std::vector<std::pair<uint64_t, size_t>> oneshots;  ///< (sequence, pool).
};

std::atomic<uint64_t> g_sequence{0};

void RunConnection(const Config& cfg, DaemonSetup* s, size_t c,
                   double end_ms, Gate* gate, ConnResult* out) {
  const Script& script = s->scripts[c];
  xicc::net::Client& client = s->clients[c];
  const JsonValue session = JsonValue::Int(s->sessions[c]);
  for (size_t k = 0; NowMs() < end_ms; ++k) {
    const Op& op = script.ops[k % script.ops.size()];
    const int64_t id = static_cast<int64_t>(k + 1);
    JsonValue req;
    switch (op.kind) {
      case kCheckSession:
        req = Request("check", id);
        req.Set("session", session).Set("sigma", JsonValue::Str(op.text));
        break;
      case kCommit:
        req = Request("commit", id);
        req.Set("session", session).Set("sigma", JsonValue::Str(op.text));
        break;
      case kRollback:
        req = Request("rollback", id);
        req.Set("session", session);
        break;
      case kImplies:
        req = Request("implies", id);
        req.Set("session", session).Set("phi", JsonValue::Str(op.text));
        break;
      case kCheckOneShot:
        req = Request("check", id);
        req.Set("dtd", JsonValue::Str(s->pool[op.oneshot].dtd_text))
            .Set("sigma", JsonValue::Str(s->pool[op.oneshot].sigma_text));
        break;
      default:
        break;
    }
    const uint64_t request_id = g_sequence.fetch_add(1) + 1;
    if (op.kind == kCheckOneShot && cfg.trace) {
      out->oneshots.push_back({request_id, op.oneshot});
    }
    Tracer::SetRequest(request_id);
    const double t0 = NowMs();
    xicc::Result<JsonValue> resp = xicc::Status::Internal("not sent");
    {
      ScopedSpan span(kSpanNames[op.kind]);
      resp = client.Call(req);
    }
    const double rtt = NowMs() - t0;
    out->attempted++;
    // A transport failure drops the connection; the next Call reconnects,
    // and the session outlives the connection.
    if (!resp.ok() || !resp->GetBool("ok", false)) {
      out->failed++;
      continue;
    }
    const char* verdict = op.kind == kImplies ? "implied" : "consistent";
    if ((op.kind == kCheckSession || op.kind == kCheckOneShot ||
         op.kind == kImplies) &&
        resp->GetBool(verdict, !op.expect) != op.expect) {
      gate->Fail(std::string("daemon ") + verdict +
                 " verdict differs from the in-process session");
    }
    out->ok++;
    out->latencies.push_back(rtt);
    out->rtt[op.kind].push_back(rtt);
    if (!cfg.trace) continue;

    const std::string request_line = req.Dump();
    const std::string response_line = resp->Dump();
    out->bytes += static_cast<double>(request_line.size() +
                                      response_line.size() + 2);
    if (k < script.ops.size()) {
      out->exchanges.push_back(
          {op.kind, k, rtt, request_line, response_line});
    }
    // An interleaved ping after every fourth verdict: the protocol floor.
    if (k % 4 == 3) {
      const double p0 = NowMs();
      ScopedSpan span(kSpanNames[kPing]);
      auto pong = client.Call(Request("ping", id));
      if (pong.ok() && pong->GetBool("ok", false)) {
        out->rtt[kPing].push_back(NowMs() - p0);
      }
    }
  }
}

}  // namespace

Outcome RunDaemonAuthoring(const Config& cfg, Gate* gate) {
  Outcome out;
  const PinToOneCpu pin;
  out.notes.push_back("daemon_authoring " + pin.Note());
  double setup_s = 0.0;
  DaemonSetup s =
      RepeatSetup(cfg.smoke ? 1 : 5, [&] { return Setup(cfg, gate); },
                  &setup_s, &out.notes);
  if (s.server == nullptr) return out;

  const double measure_ms = cfg.seconds * 1e3 * (cfg.trace ? 0.7 : 1.0);
  std::vector<ConnResult> results(kConnections);
  Tracer::SetEnabled(cfg.trace);
  const double cpu0 = ProcessCpuMs();
  const double start = NowMs();
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kConnections; ++c) {
      threads.emplace_back(RunConnection, std::cref(cfg), &s, c,
                           start + measure_ms, gate, &results[c]);
    }
    for (auto& t : threads) t.join();
  }
  const double wall = NowMs() - start;
  const double cpu_ms = ProcessCpuMs() - cpu0;
  Tracer::SetEnabled(false);

  std::vector<double> latencies;
  std::vector<double> rtt[kKinds];
  size_t verdicts = 0;
  double bytes = 0;
  for (ConnResult& r : results) {
    out.attempted += r.attempted;
    out.failed += r.failed;
    verdicts += r.ok;
    bytes += r.bytes;
    latencies.insert(latencies.end(), r.latencies.begin(), r.latencies.end());
    for (size_t k = 0; k < kKinds; ++k) {
      rtt[k].insert(rtt[k].end(), r.rtt[k].begin(), r.rtt[k].end());
    }
  }

  JsonValue stats;
  {
    auto probe = xicc::net::Client::Connect({s.server->port()});
    if (probe.ok()) {
      auto r = probe->Call(Request("stats", 0));
      if (r.ok() && r->Find("stats") != nullptr) stats = *r->Find("stats");
    }
  }
  const double requests = static_cast<double>(stats.GetInt("requests", 0));
  const double shed = static_cast<double>(stats.GetInt("shed_requests", 0));
  const int64_t internal = stats.GetInt("responses_internal", 0);
  if (internal > 0) {
    out.notes.push_back("daemon answered INTERNAL " +
                        std::to_string(internal) + " times");
  }
  s.clients.clear();
  s.server.reset();

  if (!cfg.trace) {
    ReportEndToEnd(latencies, verdicts, wall, cpu_ms, setup_s, &out);
    return out;
  }

  // -- Per-layer probes (traced run only) ---------------------------------
  const std::vector<Span> loop_spans = Tracer::Collect();
  Tracer::SetEnabled(true);

  // Wire layers: the recorded request and response lines replayed through
  // the daemon's parser, envelope checker and dumper, and the constraint
  // and DTD parsers the dispatcher runs on their payloads.
  // (connection, exchange, parse + constraint-parse + encode ms) of each
  // session check, for net.unattributed_ms below.
  std::vector<std::tuple<size_t, const Exchange*, double>> check_layers;
  for (size_t c = 0; c < kConnections; ++c) {
    for (const Exchange& x : results[c].exchanges) {
      double t0 = NowMs();
      xicc::Result<xicc::net::Request> request =
          xicc::Status::Internal("not parsed");
      {
        ScopedSpan span("net.ParseRequest");
        auto envelope = xicc::net::ParseJson(x.request);
        if (envelope.ok()) request = xicc::net::ParseRequest(*envelope);
      }
      const double parse_ms = NowMs() - t0;
      if (!request.ok()) {
        gate->Fail("recorded request does not parse");
        continue;
      }
      auto response = xicc::net::ParseJson(x.response);
      if (!response.ok()) {
        gate->Fail("recorded response does not parse");
        continue;
      }
      t0 = NowMs();
      {
        ScopedSpan span("net.DumpResponse");
        const std::string line = response->Dump();
        if (line != x.response) gate->Fail("response does not round-trip");
      }
      const double encode_ms = NowMs() - t0;
      double constraints_ms = 0;
      if (x.kind == kCheckSession || x.kind == kCheckOneShot ||
          x.kind == kCommit) {
        t0 = NowMs();
        ScopedSpan span("constraints.ParseConstraints");
        if (!xicc::ParseConstraints(request->sigma).ok()) {
          gate->Fail("recorded sigma does not parse");
        }
        constraints_ms = NowMs() - t0;
      }
      if (x.kind == kCheckOneShot) {
        ScopedSpan span("dtd.ParseDtd");
        if (!xicc::ParseDtd(request->dtd).ok()) {
          gate->Fail("recorded DTD does not parse");
        }
      }
      if (x.kind == kCheckSession) {
        check_layers.emplace_back(c, &x, parse_ms + constraints_ms + encode_ms);
      }
    }
  }

  // Session layer: each script replayed once through an in-process session
  // with the daemon's options (witness off, default memo). Its memo sees the
  // same sequence as the daemon's session did on the first pass.
  IlpTotals ilp;
  double queries = 0, fresh = 0, memo_hits = 0, memo_lookups = 0;
  std::vector<std::vector<double>> session_check_ms(kConnections);
  for (size_t c = 0; c < kConnections; ++c) {
    const Script& script = s.scripts[c];
    session_check_ms[c].assign(script.ops.size(), 0.0);
    auto dtd = xicc::ParseDtd(script.dtd_text);
    auto compiled = dtd.ok() ? xicc::CompileDtd(*dtd)
                             : xicc::Result<std::shared_ptr<
                                   const xicc::CompiledDtd>>(dtd.status());
    if (!compiled.ok()) continue;
    xicc::ConsistencyOptions options;
    options.build_witness = false;
    std::unique_ptr<xicc::SpecSession> session;
    {
      ScopedSpan span("core.spec_session.SpecSession");
      session = std::make_unique<xicc::SpecSession>(*compiled, options);
    }
    for (size_t k = 0; k < script.ops.size(); ++k) {
      const Op& op = script.ops[k];
      if (op.kind == kCheckSession) {
        const double t0 = NowMs();
        xicc::Result<xicc::ConsistencyResult> r =
            xicc::Status::Internal("not run");
        {
          ScopedSpan span("core.spec_session.Check");
          r = session->Check(op.sigma);
        }
        session_check_ms[c][k] = NowMs() - t0;
        if (!r.ok() || r->consistent != op.expect) {
          gate->Fail("session replay verdict differs");
        } else if (r->stats.memo_hits == 0) {
          AddIlp(*r, &ilp);
        }
      } else if (op.kind == kCommit) {
        ScopedSpan span("core.spec_session.Commit");
        if (!session->Commit(op.sigma).ok()) gate->Fail("replay commit");
      } else if (op.kind == kRollback) {
        session->Rollback();
      } else if (op.kind == kImplies) {
        auto phi = xicc::ParseConstraint(op.text);
        if (!phi.ok()) continue;
        ScopedSpan span("core.spec_session.Implies");
        auto r = session->Implies(*phi);
        if (!r.ok() || r->implied != op.expect) {
          gate->Fail("session replay implication differs");
        }
      }
    }
    const xicc::SpecSessionStats& st = session->stats();
    queries += static_cast<double>(st.queries);
    fresh += static_cast<double>(st.fresh_fallbacks);
    memo_hits += static_cast<double>(st.memo_hits);
    memo_lookups += static_cast<double>(st.memo_hits + st.memo_misses);
  }

  // Artifact layer: a cold pass over the pool into an empty directory, then
  // the daemon's one-shot sequence replayed against the populated
  // directory with the daemon's memory-tier size.
  std::vector<xicc::Dtd> pool_dtds;
  for (const OneShot& shot : s.pool) {
    auto dtd = xicc::ParseDtd(shot.dtd_text);
    if (dtd.ok()) pool_dtds.push_back(*dtd);
  }
  std::vector<double> lookup[4];
  const std::string cold_dir = cfg.work_dir + "/artifacts_cold";
  std::error_code ignored;
  std::filesystem::remove_all(cold_dir, ignored);
  {
    xicc::ArtifactCache cold({cold_dir, kMemoryTier});
    for (const xicc::Dtd& dtd : pool_dtds) {
      {
        ScopedSpan span("core.CompileDtd");
        (void)xicc::CompileDtd(dtd);
      }
      const double t0 = NowMs();
      auto r = cold.GetOrCompile(dtd);
      if (r.ok()) lookup[static_cast<size_t>(r->source)].push_back(NowMs() - t0);
    }
  }
  std::filesystem::remove_all(cold_dir, ignored);
  std::vector<std::pair<uint64_t, size_t>> sequence;
  for (const ConnResult& r : results) {
    sequence.insert(sequence.end(), r.oneshots.begin(), r.oneshots.end());
  }
  std::sort(sequence.begin(), sequence.end());
  {
    xicc::ArtifactCache warm({s.artifact_dir, kMemoryTier});
    for (const auto& [seq, index] : sequence) {
      if (index >= pool_dtds.size()) continue;
      const double t0 = NowMs();
      ScopedSpan span("core.artifact_cache.GetOrCompile");
      auto r = warm.GetOrCompile(pool_dtds[index]);
      if (r.ok()) lookup[static_cast<size_t>(r->source)].push_back(NowMs() - t0);
    }
  }
  std::filesystem::remove_all(s.artifact_dir, ignored);
  Tracer::SetEnabled(false);

  const auto self = FinishTrace(cfg, loop_spans, wall, verdicts,
                                Tracer::Collect(), &out);
  auto median_of = [&](const char* name) { return MedianOf(self, name); };

  const double ping = Median(rtt[kPing]);
  out.Layer("net.rtt_p50_ms.check_session", Median(rtt[kCheckSession]), "ms");
  out.Layer("net.rtt_p50_ms.check_oneshot", Median(rtt[kCheckOneShot]), "ms");
  out.Layer("net.rtt_p50_ms.implies", Median(rtt[kImplies]), "ms");
  out.Layer("net.rtt_p50_ms.commit", Median(rtt[kCommit]), "ms");
  out.Layer("net.ping_rtt_p50_ms", ping, "ms");
  out.Layer("net.json_parse_ms", median_of("net.ParseRequest"), "ms");
  out.Layer("net.json_encode_ms", median_of("net.DumpResponse"), "ms");
  out.Layer("net.bytes_per_request",
            verdicts == 0 ? 0.0 : bytes / static_cast<double>(verdicts),
            "bytes");
  out.Layer("net.shed_share", requests > 0 ? shed / requests : 0.0, "share");
  // What a session check's round trip spends beyond the protocol floor
  // and the layers replayed above for the same request: the median over
  // first-pass session checks.
  std::vector<double> unattributed;
  for (const auto& [c, x, layers_ms] : check_layers) {
    unattributed.push_back(x->rtt_ms - ping - layers_ms -
                           session_check_ms[c][x->op]);
  }
  out.Layer("net.unattributed_ms", Median(unattributed), "ms");
  out.Layer("dtd.parse_ms", median_of("dtd.ParseDtd"), "ms");
  out.Layer("constraints.parse_ms", median_of("constraints.ParseConstraints"),
            "ms");
  using xicc::ArtifactSource;
  out.Layer("core.artifact_cache.lookup_ms.memory",
            Median(lookup[static_cast<size_t>(ArtifactSource::kMemory)]),
            "ms");
  out.Layer("core.artifact_cache.lookup_ms.mmap",
            Median(lookup[static_cast<size_t>(ArtifactSource::kMmap)]), "ms");
  out.Layer("core.artifact_cache.lookup_ms.cold",
            Median(lookup[static_cast<size_t>(ArtifactSource::kCold)]), "ms");
  const double replayed = static_cast<double>(sequence.size());
  out.Layer("core.artifact_cache.memory_hit_share",
            replayed == 0
                ? 0.0
                : static_cast<double>(
                      lookup[static_cast<size_t>(ArtifactSource::kMemory)]
                          .size()) /
                      replayed,
            "share");
  out.Layer("core.compile_ms", median_of("core.CompileDtd"), "ms");
  out.Layer("core.spec_session.setup_ms",
            median_of("core.spec_session.SpecSession"), "ms");
  out.Layer("core.spec_session.check_ms", median_of("core.spec_session.Check"),
            "ms");
  out.Layer("core.spec_session.implies_ms",
            median_of("core.spec_session.Implies"), "ms");
  out.Layer("core.spec_session.commit_ms",
            median_of("core.spec_session.Commit"), "ms");
  out.Layer("core.spec_session.memo_hit_share",
            memo_lookups > 0 ? memo_hits / memo_lookups : 0.0, "share");
  out.Layer("core.spec_session.fresh_fallback_share",
            queries > 0 ? fresh / queries : 0.0, "share");
  ReportIlp(ilp, &out);
  // Daemon checks carry no witness: the witness layer idles here.
  out.Layer("core.witness.nodes", 0.0, "count/query");
  return out;
}

}  // namespace xbench
