#include "obs/trace.hpp"

#include <fstream>
#include <map>
#include <sstream>

#include "common/json.hpp"
#include "common/logging.hpp"

namespace hcm::obs {

namespace {

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

}  // namespace

Tracer::Tracer()
    : dropped_counter_(
          Registry::global().counter("obs.trace.spans_dropped")) {}

Tracer& Tracer::global() {
  // Process-wide trace sink; recorders attach per scenario, so
  // sharding wraps this rather than copying it.
  // hcm:allow(shard-static-local): process-wide trace sink
  static Tracer g;
  return g;
}

TraceContext& Tracer::tls_current() {
  // Per-thread dispatch context: each shard worker's Scope chain is
  // private to it, matching the synchronous-segment semantics.
  // hcm:allow(shard-static-local): thread_local — per-shard by definition
  static thread_local TraceContext ctx;
  return ctx;
}

void Tracer::set_enabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
  if (on) {
    Log::set_context_provider([]() -> std::string {
      const TraceContext& cur = tls_current();
      if (!cur.valid()) return "";
      return "trace=" + hex(cur.trace_id) + " span=" + hex(cur.span_id);
    });
  } else {
    Log::set_context_provider(nullptr);
  }
}

std::uint64_t Tracer::begin_span(const std::string& name,
                                 const std::string& component,
                                 sim::SimTime now) {
  if (!enabled()) return 0;
  const TraceContext& cur = tls_current();
  Span s;
  std::lock_guard<std::mutex> lk(mu_);
  if (max_spans_ != 0 && spans_.size() >= max_spans_) {
    // At the cap: count the drop and report "not traced". No id is
    // consumed, so capped runs stay id-stable with uncapped prefixes.
    ++dropped_;
    dropped_counter_.inc();
    return 0;
  }
  s.span_id = next_id_++;
  if (cur.valid()) {
    s.trace_id = cur.trace_id;
    s.parent_span_id = cur.span_id;
  } else {
    s.trace_id = next_id_++;
  }
  s.name = name;
  s.component = component;
  s.start = now;
  s.end = now;
  spans_.push_back(std::move(s));
  return spans_.back().span_id;
}

void Tracer::end_span(std::uint64_t span_id, sim::SimTime now, bool ok) {
  if (span_id == 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  // Spans close in roughly LIFO order, so scan from the back.
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->span_id == span_id) {
      if (!it->open) return;
      it->open = false;
      it->end = now;
      it->ok = ok;
      return;
    }
  }
}

TraceContext Tracer::context_of(std::uint64_t span_id) const {
  if (span_id == 0) return {};  // untraced: no scan, no lock
  std::lock_guard<std::mutex> lk(mu_);
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->span_id == span_id) {
      return TraceContext{it->trace_id, it->span_id, it->parent_span_id};
    }
  }
  return {};
}

void Tracer::set_max_spans(std::size_t n) {
  std::lock_guard<std::mutex> lk(mu_);
  max_spans_ = n;
}

std::size_t Tracer::max_spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return max_spans_;
}

std::uint64_t Tracer::dropped_spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return dropped_;
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  spans_.clear();
  next_id_ = 1;
  dropped_ = 0;
  tls_current() = {};
}

std::string Tracer::export_chrome(std::uint64_t trace_id) const {
  // One Chrome "thread" row per component, in first-seen order.
  std::map<std::string, int> tids;
  for (const auto& s : spans_) {
    if (trace_id != 0 && s.trace_id != trace_id) continue;
    tids.emplace(s.component, static_cast<int>(tids.size()) + 1);
  }
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& [component, tid] : tids) {
    if (!first) os << ",";
    first = false;
    os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
       << json_escape(component) << "\"}}";
  }
  for (const auto& s : spans_) {
    if (trace_id != 0 && s.trace_id != trace_id) continue;
    if (!first) os << ",";
    first = false;
    os << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << tids[s.component]
       << ",\"ts\":" << s.start << ",\"dur\":" << (s.end - s.start)
       << ",\"name\":\"" << json_escape(s.name)
       << "\",\"args\":{\"trace\":\"" << hex(s.trace_id) << "\",\"span\":\""
       << hex(s.span_id) << "\",\"parent\":\"" << hex(s.parent_span_id)
       << "\",\"ok\":" << (s.ok ? "true" : "false") << "}}";
  }
  os << "]}";
  return os.str();
}

bool Tracer::write_chrome(const std::string& path,
                          std::uint64_t trace_id) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << export_chrome(trace_id) << "\n";
  return static_cast<bool>(out);
}

}  // namespace hcm::obs
