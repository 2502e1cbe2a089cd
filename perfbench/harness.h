// Benchmark plumbing shared by the workloads and the layer rigs: wall
// clocks, medians, named metrics, and the host-time span log of a traced
// run.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using WallClock = std::chrono::steady_clock;

inline double SecondsSince(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

// Linearly interpolated quantile `q` in [0, 1] of `values` (0 for an empty
// list); Median is q = 0.5.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

// Peak resident set of this process, in MiB.
double PeakRssMb();

// One named metric with its unit, in report order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class MetricList {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& items() const { return items_; }
  const Metric* Find(const std::string& name) const;

 private:
  std::vector<Metric> items_;
};

// Host wall-clock spans around the benchmark's own calls into the program:
// name, start, end and the enclosing span.  Kept in memory and written once,
// as Chrome trace-event JSON that Perfetto loads, when the run ends.
class SpanLog {
 public:
  SpanLog();

  int Begin(const std::string& name);
  void End(int id);
  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = -1;
    int parent = -1;
  };
  int64_t NowNs() const;

  WallClock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; inert when the log is null (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name)
      : log_(log), id_(log != nullptr ? log->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
