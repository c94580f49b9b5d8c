#pragma once

// Shared helpers for the daemon suites (daemon_test.cc, daemon_soak_test.cc):
// textual workloads the wire protocol can carry, and small request builders.
//
// The engine-side workload generators produce Dtd / ConstraintSet objects;
// the daemon speaks text. Dtd::ToString() round-trips through ParseDtd, and
// SigmaText renders a ConstraintSet in the grammar constraint_parser.h
// accepts (`key t(a)`, `inclusion a(x) <= b(y)`, `fk a(x) => b(y)`).

#include <string>
#include <vector>

#include "constraints/constraint.h"
#include "net/json.h"
#include "workloads/generators.h"

namespace xicc {
namespace net {

inline std::string AttrList(const std::vector<std::string>& attrs) {
  std::string out = "(";
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (i > 0) out += ", ";
    out += attrs[i];
  }
  return out + ")";
}

inline std::string SigmaText(const ConstraintSet& sigma) {
  std::string out;
  for (const Constraint& c : sigma.constraints()) {
    switch (c.kind) {
      case ConstraintKind::kKey:
        out += "key " + c.type1 + AttrList(c.attrs1);
        break;
      case ConstraintKind::kNegKey:
        out += "!key " + c.type1 + AttrList(c.attrs1);
        break;
      case ConstraintKind::kInclusion:
        out += "inclusion " + c.type1 + AttrList(c.attrs1) + " <= " +
               c.type2 + AttrList(c.attrs2);
        break;
      case ConstraintKind::kNegInclusion:
        out += "!inclusion " + c.type1 + AttrList(c.attrs1) + " <= " +
               c.type2 + AttrList(c.attrs2);
        break;
      case ConstraintKind::kForeignKey:
        out += "fk " + c.type1 + AttrList(c.attrs1) + " => " + c.type2 +
               AttrList(c.attrs2);
        break;
    }
    out += "\n";
  }
  return out;
}

/// A consistent-but-search-heavy spec (the Theorem 4.7 NP-hardness gadget):
/// large enough that a millisecond-scale deadline reliably expires inside
/// the search, small enough that an unbounded solve still terminates.
struct TextSpec {
  std::string dtd;
  std::string sigma;
};

inline TextSpec HardSpec() {
  const workloads::LipEncoding enc = workloads::EncodeLipAsConsistency(
      workloads::RandomLip(/*seed=*/3, /*rows=*/12, /*cols=*/24,
                           /*ones_per_row=*/3));
  return {enc.dtd.ToString(), SigmaText(enc.sigma)};
}

/// A small spec (a 3x4 LIP gadget) that checks in milliseconds, not
/// microseconds: an in-process SpecSession::Check spends about 5-8 ms in the
/// solver (x86-64, one core), so round trips with it are solver-bound, not
/// protocol-bound.
inline TextSpec EasySpec() {
  const workloads::LipEncoding enc = workloads::EncodeLipAsConsistency(
      workloads::RandomLip(/*seed=*/1, /*rows=*/3, /*cols=*/4,
                           /*ones_per_row=*/2));
  return {enc.dtd.ToString(), SigmaText(enc.sigma)};
}

// -- Request builders -------------------------------------------------------

inline JsonValue Req(const std::string& verb, int64_t id) {
  JsonValue v = JsonValue::Object();
  v.Set("verb", JsonValue::Str(verb)).Set("id", JsonValue::Int(id));
  return v;
}

inline JsonValue OpenReq(int64_t id, const TextSpec& spec) {
  return Req("open", id).Set("dtd", JsonValue::Str(spec.dtd));
}

inline JsonValue CheckReq(int64_t id, uint64_t session,
                          const std::string& sigma, int64_t timeout_ms = 0) {
  JsonValue v = Req("check", id);
  v.Set("session", JsonValue::Int(static_cast<int64_t>(session)))
      .Set("sigma", JsonValue::Str(sigma));
  if (timeout_ms > 0) v.Set("timeout_ms", JsonValue::Int(timeout_ms));
  return v;
}

inline JsonValue OneShotCheckReq(int64_t id, const TextSpec& spec,
                                 int64_t timeout_ms = 0) {
  JsonValue v = Req("check", id);
  v.Set("dtd", JsonValue::Str(spec.dtd))
      .Set("sigma", JsonValue::Str(spec.sigma));
  if (timeout_ms > 0) v.Set("timeout_ms", JsonValue::Int(timeout_ms));
  return v;
}

/// The closed wire-outcome set of DESIGN.md §13: every response is a result
/// or one of these. INTERNAL is deliberately NOT here — the soak asserts it
/// never appears.
inline bool IsClosedOutcome(const JsonValue& response) {
  if (response.GetBool("ok", false)) return true;
  const std::string err = response.GetString("error", "");
  return err == "INVALID_ARGUMENT" || err == "DEADLINE_EXCEEDED" ||
         err == "CANCELLED" || err == "UNAVAILABLE";
}

}  // namespace net
}  // namespace xicc
