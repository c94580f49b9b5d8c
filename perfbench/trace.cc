#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace xbench {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};

struct ThreadBuffer {
  std::vector<Span> spans;
  uint64_t current = 0;
  uint64_t request = 0;
};

std::mutex g_registry_mu;
/// Buffers outlive their threads: Collect runs after the workers joined.
std::vector<std::unique_ptr<ThreadBuffer>>& Registry() {
  static auto* registry = new std::vector<std::unique_ptr<ThreadBuffer>>();
  return *registry;
}

ThreadBuffer* Local() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    owned->spans.reserve(1 << 14);
    buffer = owned.get();
    std::lock_guard<std::mutex> lock(g_registry_mu);
    Registry().push_back(std::move(owned));
  }
  return buffer;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void Tracer::SetEnabled(bool enabled) { g_enabled.store(enabled); }
bool Tracer::Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Tracer::SetRequest(uint64_t request) { Local()->request = request; }

std::vector<Span> Tracer::Collect() {
  std::vector<Span> all;
  {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    for (auto& buffer : Registry()) {
      all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
      buffer->spans.clear();
    }
  }
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(all.size());
  for (size_t i = 0; i < all.size(); ++i) index[all[i].id] = i;
  std::vector<int64_t> child_ns(all.size(), 0);
  for (const Span& span : all) {
    if (span.parent == 0) continue;
    auto it = index.find(span.parent);
    if (it != index.end()) child_ns[it->second] += span.end_ns - span.start_ns;
  }
  for (size_t i = 0; i < all.size(); ++i) {
    all[i].self_ms =
        static_cast<double>(all[i].end_ns - all[i].start_ns - child_ns[i]) /
        1e6;
  }
  return all;
}

bool Tracer::Write(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"self_ms\":%.6f}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.self_ms);
  }
  return std::fclose(out) == 0;
}

double Tracer::CalibrateSpanCostNs() {
  const bool was_enabled = Enabled();
  SetEnabled(true);
  constexpr int kSpans = 20000;
  const int64_t start = NowNs();
  for (int i = 0; i < kSpans; ++i) {
    ScopedSpan span("trace.calibration");
  }
  const int64_t elapsed = NowNs() - start;
  SetEnabled(was_enabled);
  // Drop the calibration spans from this thread's buffer.
  ThreadBuffer* buffer = Local();
  buffer->spans.resize(buffer->spans.size() - kSpans);
  return static_cast<double>(elapsed) / kSpans;
}

ScopedSpan::ScopedSpan(const char* name) {
  if (!Tracer::Enabled()) return;
  ThreadBuffer* buffer = Local();
  active_ = true;
  slot_ = buffer->spans.size();
  Span span;
  span.name = name;
  span.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span.parent = buffer->current;
  span.request = buffer->request;
  saved_parent_ = buffer->current;
  buffer->current = span.id;
  span.start_ns = NowNs();
  buffer->spans.push_back(span);
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const int64_t end = NowNs();
  ThreadBuffer* buffer = Local();
  buffer->spans[slot_].end_ns = end;
  buffer->current = saved_parent_;
}

std::map<std::string, std::vector<double>> SelfTimesByName(
    const std::vector<Span>& spans) {
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans) out[s.name].push_back(s.self_ms);
  return out;
}

}  // namespace xbench
