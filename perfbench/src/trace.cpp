#include "trace.h"

#include <cstdio>

namespace perfbench {

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Tracer::Span::Span(Tracer& t, const char* name, const char* layer)
    : tracer_(t) {
  if (!t.enabled_) return;
  Record r;
  r.name = name;
  r.layer = layer;
  r.parent = t.open_.empty() ? -1 : t.open_.back();
  r.group = t.group_;
  r.begin_ns = t.now_ns();
  index_ = static_cast<int>(t.records_.size());
  t.records_.push_back(r);
  t.open_.push_back(index_);
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  tracer_.records_[static_cast<std::size_t>(index_)].end_ns = tracer_.now_ns();
  tracer_.open_.pop_back();
}

std::map<std::string, double> Tracer::self_seconds_by_layer(
    std::int64_t min_group) const {
  std::vector<std::int64_t> child_ns(records_.size(), 0);
  for (const Record& r : records_) {
    if (r.parent >= 0) {
      child_ns[static_cast<std::size_t>(r.parent)] += r.end_ns - r.begin_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.group < min_group) continue;
    out[r.layer] += 1e-9 * static_cast<double>(r.end_ns - r.begin_ns -
                                                child_ns[i]);
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path,
                                const std::string& other_data) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":{%s},\n",
               other_data.c_str());
  std::fprintf(f, "\"traceEvents\":[");
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                 "\"args\":{\"id\":%zu,\"parent\":%d,\"group\":%lld}}",
                 i == 0 ? "" : ",", r.name, r.layer, 1e-3 * r.begin_ns,
                 1e-3 * static_cast<double>(r.end_ns - r.begin_ns), i,
                 r.parent, static_cast<long long>(r.group));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
