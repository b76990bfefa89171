// In-memory span recorder for the layer harness (harness.h).
//
// Spans are recorded from the benchmark's own code around calls into the
// simulator's layers, kept in memory while the campaign runs, and turned
// into a Chrome trace-event file and a per-layer self-time summary only
// after the measured window has closed.
#pragma once

#include <cstddef>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/timer.h"

namespace collapois::bench {

struct Span {
  const char* name = "";  // a string literal: the layer name
  double start_ms = 0.0;  // relative to the recorder's epoch
  double end_ms = 0.0;
  int parent = -1;        // index of the enclosing span; -1 = top level
  int thread = 0;         // 0 = the thread that created the recorder
};

class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // A span opened and closed on the recording thread. Scopes nest; the
  // innermost open scope is the parent of every span recorded meanwhile,
  // including spans recorded from pool workers.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
    int id_;
  };

  // Records the finished interval [start, end) under the innermost open
  // scope. Safe to call from any thread.
  void record(const char* name, runtime::WallInstant start,
              runtime::WallInstant end);

  double ms_since_epoch(runtime::WallInstant t) const;
  std::vector<Span> spans() const;

 private:
  int thread_index_locked();

  runtime::WallInstant epoch_;
  mutable std::mutex mu_;  // guards everything below
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<std::thread::id> threads_;
};

struct LayerTime {
  std::string name;
  std::size_t count = 0;
  double total_ms = 0.0;
  // Duration minus the part of the interval that child spans cover.
  double self_ms = 0.0;
};

// Per-span self time, parallel to `spans`.
std::vector<double> self_times_ms(const std::vector<Span>& spans);

// Spans grouped by name, sorted by self time, largest first.
std::vector<LayerTime> layer_times(const std::vector<Span>& spans);

// Summed duration of the top-level spans over `wall_ms`.
double top_level_coverage(const std::vector<Span>& spans, double wall_ms);

// Chrome trace-event objects ("ph": "X") for `spans`, comma-separated,
// without the enclosing array, so several campaigns share one file.
void write_trace_events(std::ostream& os, const std::vector<Span>& spans,
                        int pid, const std::string& process_name);

}  // namespace collapois::bench
