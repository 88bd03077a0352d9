// SpanRecorder: the traced run's in-memory span buffer.
#include <cstdio>

#include "bench.hpp"
#include "common/json.hpp"

namespace hcm::perfbench {

std::uint64_t SpanRecorder::begin(const char* name, std::uint64_t op_id) {
  Open open;
  open.span.id = next_id_++;
  open.span.parent = stack_.empty() ? 0 : stack_.back().span.id;
  open.span.op_id = op_id;
  open.span.name = name;
  open.span.start_ns = ns_between(epoch_, Clock::now());
  stack_.push_back(open);
  return open.span.id;
}

void SpanRecorder::end(std::uint64_t id) {
  const std::uint64_t now = ns_between(epoch_, Clock::now());
  // Spans close in LIFO order (SpanScope); anything left above `id` was
  // leaked by an early return and is closed with it.
  while (!stack_.empty()) {
    Open open = stack_.back();
    stack_.pop_back();
    open.span.end_ns = now;
    const std::uint64_t dur = open.span.end_ns - open.span.start_ns;
    Totals& t = totals_[open.span.name];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur > open.child_ns ? dur - open.child_ns : 0;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (kept_.size() < max_kept_) {
      kept_.push_back(open.span);
    } else {
      ++dropped_;
    }
    if (open.span.id == id) break;
  }
}

double SpanRecorder::mean_ns(const std::string& name) const {
  auto it = totals_.find(name);
  if (it == totals_.end() || it->second.count == 0) return 0;
  return static_cast<double>(it->second.total_ns) /
         static_cast<double>(it->second.count);
}

bool SpanRecorder::write(const std::string& path, const Value& extra) const {
  ValueList spans;
  spans.reserve(kept_.size());
  for (const Span& s : kept_) {
    spans.push_back(Value(ValueMap{
        {"id", Value(static_cast<std::int64_t>(s.id))},
        {"parent", Value(static_cast<std::int64_t>(s.parent))},
        {"op", Value(static_cast<std::int64_t>(s.op_id))},
        {"name", Value(std::string(s.name))},
        {"start_ns", Value(static_cast<std::int64_t>(s.start_ns))},
        {"end_ns", Value(static_cast<std::int64_t>(s.end_ns))},
    }));
  }
  ValueMap totals;
  for (const auto& [name, t] : totals_) {
    totals[name] = Value(ValueMap{
        {"count", Value(static_cast<std::int64_t>(t.count))},
        {"total_ns", Value(static_cast<std::int64_t>(t.total_ns))},
        {"self_ns", Value(static_cast<std::int64_t>(t.self_ns))},
    });
  }
  const Value doc(ValueMap{
      {"spans", Value(std::move(spans))},
      {"spans_not_kept", Value(static_cast<std::int64_t>(dropped_))},
      {"totals", Value(std::move(totals))},
      {"program", extra},
  });
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string text = json_write(doc);
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace hcm::perfbench
