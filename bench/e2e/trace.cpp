#include "trace.h"

#include <algorithm>
#include <map>
#include <utility>

namespace collapois::bench {

SpanRecorder::SpanRecorder()
    : epoch_(runtime::wall_now()), threads_{std::this_thread::get_id()} {}

SpanRecorder::Scope::Scope(SpanRecorder& rec, const char* name) : rec_(rec) {
  const double start = rec_.ms_since_epoch(runtime::wall_now());
  std::lock_guard<std::mutex> lock(rec_.mu_);
  Span s;
  s.name = name;
  s.start_ms = start;
  s.parent = rec_.open_.empty() ? -1 : rec_.open_.back();
  s.thread = rec_.thread_index_locked();
  id_ = static_cast<int>(rec_.spans_.size());
  rec_.spans_.push_back(s);
  rec_.open_.push_back(id_);
}

SpanRecorder::Scope::~Scope() {
  const double end = rec_.ms_since_epoch(runtime::wall_now());
  std::lock_guard<std::mutex> lock(rec_.mu_);
  rec_.spans_[static_cast<std::size_t>(id_)].end_ms = end;
  rec_.open_.pop_back();
}

void SpanRecorder::record(const char* name, runtime::WallInstant start,
                          runtime::WallInstant end) {
  Span s;
  s.name = name;
  s.start_ms = ms_since_epoch(start);
  s.end_ms = ms_since_epoch(end);
  std::lock_guard<std::mutex> lock(mu_);
  s.parent = open_.empty() ? -1 : open_.back();
  s.thread = thread_index_locked();
  spans_.push_back(s);
}

double SpanRecorder::ms_since_epoch(runtime::WallInstant t) const {
  return std::chrono::duration<double, std::milli>(t - epoch_).count();
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

int SpanRecorder::thread_index_locked() {
  const auto id = std::this_thread::get_id();
  const auto it = std::find(threads_.begin(), threads_.end(), id);
  if (it != threads_.end()) return static_cast<int>(it - threads_.begin());
  threads_.push_back(id);
  return static_cast<int>(threads_.size() - 1);
}

std::vector<double> self_times_ms(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ms,
                                                                s.end_ms);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    // Children of one parent overlap when they ran on different threads,
    // so subtract the union of their intervals, clipped to the parent.
    double covered = 0.0;
    double cursor = s.start_ms;
    for (const auto& [lo, hi] : iv) {
      const double a = std::max(lo, cursor);
      const double b = std::min(hi, s.end_ms);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = (s.end_ms - s.start_ms) - covered;
  }
  return self;
}

std::vector<LayerTime> layer_times(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times_ms(spans);
  std::map<std::string, LayerTime> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTime& l = by_name[spans[i].name];
    l.name = spans[i].name;
    ++l.count;
    l.total_ms += spans[i].end_ms - spans[i].start_ms;
    l.self_ms += self[i];
  }
  std::vector<LayerTime> out;
  for (auto& [name, l] : by_name) out.push_back(std::move(l));
  std::sort(out.begin(), out.end(), [](const LayerTime& a, const LayerTime& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

double top_level_coverage(const std::vector<Span>& spans, double wall_ms) {
  double covered = 0.0;
  for (const Span& s : spans) {
    if (s.parent < 0) covered += s.end_ms - s.start_ms;
  }
  return wall_ms > 0.0 ? covered / wall_ms : 0.0;
}

void write_trace_events(std::ostream& os, const std::vector<Span>& spans,
                        int pid, const std::string& process_name) {
  const auto flags = os.flags();
  const auto precision = os.precision(3);
  os << std::fixed;
  os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << pid
     << ", \"args\": {\"name\": \"" << process_name << "\"}}";
  for (const Span& s : spans) {
    os << ",\n{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": " << pid
       << ", \"tid\": " << s.thread << ", \"ts\": " << s.start_ms * 1000.0
       << ", \"dur\": " << (s.end_ms - s.start_ms) * 1000.0 << "}";
  }
  os.flags(flags);
  os.precision(precision);
}

}  // namespace collapois::bench
