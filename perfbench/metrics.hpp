// Metric arithmetic and the in-memory span tracer of the benchmark.
//
// Everything here is pure bookkeeping over numbers the benchmark measured, so
// the self-test can pin it on hand-built inputs: the percentile rule, span
// self time, and the gate·amp throughput definition.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for even sizes); 0 when empty.
double median(std::vector<double> v);

/// Linear-interpolated percentile q in [0, 100]; 0 when empty.
double percentile(std::vector<double> v, double q);

/// The tail percentile the benchmark reports for `n` samples: the highest
/// of {95, 90, 75, 50} with at least ten samples beyond it
/// (n * (1 - q/100) >= 10), else 50. p99 is left out on purpose: on a
/// shared 4-vCPU host its run-to-run spread (0.2-0.34 of the median) is
/// wider than any bound a regression gate can use.
double tail_percentile_for(std::size_t n);

/// Throughput in gate·amp/s: sum over items of (parsed input gates ×
/// 2^n_qubits) divided by the summed item seconds. Executed gates (remap
/// swaps, the measure-all of sample()) do not count.
struct ItemWork {
  std::uint64_t parsed_gates = 0;
  int n_qubits = 0;
  double seconds = 0;
};
double gate_amps_per_s(const std::vector<ItemWork>& items);

/// One closed span. `parent` indexes the enclosing span in the same log
/// (-1 for a root); `item` groups the spans of one circuit or evaluation.
struct Span {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int parent = -1;
  int item = -1;
  double dur_us() const { return end_us - start_us; }
};

/// Spans kept in memory, written out once at the end. Begin/end must nest
/// (a stack); the log never allocates inside a span beyond push_back.
class SpanLog {
public:
  SpanLog();
  /// Open a span under the innermost open one. Returns its index.
  int begin(const char* name, int item);
  void end(int index);
  const std::vector<Span>& spans() const { return spans_; }
  double now_us() const;
  /// Chrome trace-event JSON ("X" events, one track; the item id and the
  /// parent index travel in args).
  std::string chrome_json() const;

private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::int64_t epoch_ns_ = 0;
};

/// RAII span; a null log records nothing.
class Scope {
public:
  Scope(SpanLog* log, const char* name, int item)
      : log_(log), idx_(log ? log->begin(name, item) : -1) {}
  ~Scope() { if (log_) log_->end(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

private:
  SpanLog* log_;
  int idx_;
};

/// Self time of every span: its duration minus the time its direct
/// children cover (children are clipped to the parent and are assumed not
/// to overlap each other, which a stack discipline guarantees).
std::vector<double> self_times_us(const std::vector<Span>& spans);

/// Peak resident set (VmHWM) of this process in MiB; 0 if unreadable.
double peak_rss_mib();

} // namespace perfbench
