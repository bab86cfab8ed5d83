// Measurement scaffolding for the host-time benchmark: a monotonic clock, a
// span tracer that records layer boundaries from outside the program, order
// statistics, peak RSS and the one-line JSON result. Header-only; everything
// here is benchmark code, nothing is linked into the system under test.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Linear-interpolated quantile (q in [0,1]) of unsorted samples.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// Process peak resident set (VmHWM) in MiB, at kB resolution.
inline double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0.0;
  }
  char line[256];
  uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %" SCNu64 " kB", &kb) == 1) {
      break;
    }
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

// Span tracer for the traced run. Spans nest on one thread (every workload is
// single-threaded), so a span's children are exactly the spans opened while
// it is on top of the stack, and "time covered by children" is the sum of
// their durations. Per-name aggregates (calls, total, self) are always kept;
// individual spans are stored up to `capacity` for the span file written at
// the end of the run (fine-grained spans such as native calls are
// aggregate-only so a run never holds millions of records).
class SpanTracer {
 public:
  struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    int64_t parent;  // index into spans(), -1 for an op root
    uint64_t op;
  };
  struct Aggregate {
    uint64_t calls = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
  };

  explicit SpanTracer(size_t capacity = 200'000) : capacity_(capacity) {}

  // Starts op `op`: the next root span belongs to it.
  void SetOp(uint64_t op) { op_ = op; }

  void Open(const char* name, bool store = true) {
    Frame frame;
    frame.name = name;
    frame.start = NowNs();
    frame.stored = -1;
    if (store && spans_.size() < capacity_) {
      frame.stored = static_cast<int64_t>(spans_.size());
      int64_t parent = -1;
      for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
        if (it->stored >= 0) {
          parent = it->stored;
          break;
        }
      }
      spans_.push_back(Span{name, frame.start, 0, parent, op_});
    } else if (store) {
      dropped_++;
    }
    stack_.push_back(frame);
  }

  // Closes the innermost open span; returns its duration and, when asked,
  // its self time.
  uint64_t Close(uint64_t* self_ns = nullptr) {
    uint64_t end = NowNs();
    Frame frame = stack_.back();
    stack_.pop_back();
    uint64_t dur = end - frame.start;
    Aggregate& agg = aggregates_[frame.name];
    agg.calls++;
    agg.total_ns += dur;
    uint64_t self = dur - std::min(dur, frame.child_ns);
    agg.self_ns += self;
    if (self_ns != nullptr) {
      *self_ns = self;
    }
    if (frame.stored >= 0) {
      spans_[static_cast<size_t>(frame.stored)].end_ns = end;
    }
    if (!stack_.empty()) {
      stack_.back().child_ns += dur;
    } else {
      root_ns_ += dur;
      root_child_ns_ += std::min(dur, frame.child_ns);
    }
    return dur;
  }

  const Aggregate& Get(const std::string& name) const {
    static const Aggregate kEmpty;
    auto it = aggregates_.find(name);
    return it == aggregates_.end() ? kEmpty : it->second;
  }
  // Mean span duration (µs) and mean self time (µs) per call; 0 when the
  // layer never ran.
  double MeanUs(const std::string& name) const {
    const Aggregate& a = Get(name);
    return a.calls == 0 ? 0.0
                        : static_cast<double>(a.total_ns) / 1e3 / static_cast<double>(a.calls);
  }
  double MeanSelfUs(const std::string& name) const {
    const Aggregate& a = Get(name);
    return a.calls == 0 ? 0.0
                        : static_cast<double>(a.self_ns) / 1e3 / static_cast<double>(a.calls);
  }
  // Share of op-root time that named child spans account for.
  double Coverage() const {
    return root_ns_ == 0 ? 0.0
                         : static_cast<double>(root_child_ns_) / static_cast<double>(root_ns_);
  }

  // One span per line: op, index, parent, name, start, end (ns, steady clock).
  bool WriteTsv(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "# op\tspan\tparent\tname\tstart_ns\tend_ns\tdropped=%" PRIu64 "\n", dropped_);
    for (size_t i = 0; i < spans_.size(); i++) {
      const Span& s = spans_[i];
      std::fprintf(f, "%" PRIu64 "\t%zu\t%" PRId64 "\t%s\t%" PRIu64 "\t%" PRIu64 "\n", s.op, i,
                   s.parent, s.name, s.start_ns, s.end_ns);
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Frame {
    const char* name = nullptr;
    uint64_t start = 0;
    uint64_t child_ns = 0;
    int64_t stored = -1;
  };

  size_t capacity_;
  uint64_t op_ = 0;
  std::vector<Frame> stack_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
  std::map<std::string, Aggregate> aggregates_;
  uint64_t root_ns_ = 0;
  uint64_t root_child_ns_ = 0;
};

// RAII span; a null tracer makes it free.
class Scoped {
 public:
  Scoped(SpanTracer* tracer, const char* name, bool store = true) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      tracer_->Open(name, store);
    }
  }
  ~Scoped() {
    if (tracer_ != nullptr) {
      tracer_->Close();
    }
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanTracer* tracer_;
};

// Ordered metric list for the result line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

inline void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); i++) {
    const Metric& m = metrics[i];
    double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
