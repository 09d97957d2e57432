#include "trace.h"

#include <utility>

namespace perfbench {

using serdes::util::Json;

std::int64_t ns_since(Clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

Tracer::Tracer() : origin_(Clock::now()) {}

Tracer::Scope::Scope(Tracer& tracer, const char* name)
    : tracer_(tracer), index_(static_cast<int>(tracer.spans_.size())) {
  Span span;
  span.name = name;
  span.op = tracer.op_;
  span.parent = tracer.open_;
  tracer.spans_.push_back(std::move(span));
  tracer.open_ = index_;
  // Stamp last, so the bookkeeping above is outside the span.
  tracer.spans_[static_cast<std::size_t>(index_)].start_ns =
      ns_since(tracer.origin_);
}

Tracer::Scope::~Scope() {
  Span& span = tracer_.spans_[static_cast<std::size_t>(index_)];
  span.end_ns = ns_since(tracer_.origin_);
  tracer_.open_ = span.parent;
}

double Tracer::count_of(const std::string& name) const {
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0.0 : it->second;
}

void Tracer::begin_wall() { wall_open_ns_ = ns_since(origin_); }

void Tracer::end_wall() {
  if (wall_open_ns_ < 0) return;
  wall_ns_ += ns_since(origin_) - wall_open_ns_;
  wall_open_ns_ = -1;
}

double Tracer::wall_ms() const { return static_cast<double>(wall_ns_) * 1e-6; }

std::map<std::string, double> Tracer::self_ms_by_name() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    self[span.name] +=
        static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) * 1e-6;
  }
  return self;
}

double Tracer::coverage() const {
  std::int64_t covered = 0;
  for (const Span& span : spans_) {
    if (span.parent < 0) covered += span.end_ns - span.start_ns;
  }
  return wall_ns_ > 0
             ? static_cast<double>(covered) / static_cast<double>(wall_ns_)
             : 0.0;
}

Json Tracer::to_json() const {
  Json spans = Json::array();
  for (const Span& span : spans_) {
    Json s = Json::object();
    s.set("name", span.name);
    s.set("op", span.op);
    s.set("start_ns", span.start_ns);
    s.set("end_ns", span.end_ns);
    s.set("parent", span.parent);
    spans.push_back(std::move(s));
  }
  Json self = Json::object();
  for (const auto& [name, ms] : self_ms_by_name()) self.set(name, ms);
  Json counts = Json::object();
  for (const auto& [name, n] : counts_) counts.set(name, n);
  Json out = Json::object();
  out.set("wall_ms", wall_ms());
  out.set("coverage", coverage());
  out.set("self_ms", std::move(self));
  out.set("counts", std::move(counts));
  out.set("spans", std::move(spans));
  return out;
}

}  // namespace perfbench
