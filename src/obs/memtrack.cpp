// MemRegistry implementation: tag accounting, the /proc sampler, the
// NUMA page-placement walk, and the report/HTTP exports.
//
// Locking: `mu_` guards the records and every aggregate; `thread_mu_`
// serializes sampler start/stop and is never taken while holding `mu_`
// (the sampler thread takes `mu_` per tick, so the reverse order would
// deadlock a stop against a tick).
#include "obs/memtrack.hpp"

#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "obs/capacity.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace svsim::obs {

namespace {

// Numbers the NUMA syscalls speak, local so no <numaif.h> (libnuma
// headers) is required: move_pages/get_mempolicy are raw syscalls here.
constexpr int kMpolFNode = 1;
constexpr int kMpolFAddr = 2;

/// Parse "<key>:   <n> kB" out of a /proc status-style text blob.
/// Returns false when the key is absent.
bool parse_kb(const std::string& text, const char* key, std::uint64_t* out) {
  const std::size_t pos = text.find(key);
  if (pos == std::string::npos) return false;
  const char* p = text.c_str() + pos + std::strlen(key);
  char* end = nullptr;
  const unsigned long long kb = std::strtoull(p, &end, 10);
  if (end == p) return false;
  *out = static_cast<std::uint64_t>(kb) * 1024;
  return true;
}

bool slurp_file(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream os;
  os << in.rdbuf();
  *out = os.str();
  return !out->empty();
}

} // namespace

const char* mem_tag_name(MemTag tag) {
  switch (tag) {
    case MemTag::kState: return "state";
    case MemTag::kBatch: return "batch";
    case MemTag::kShmemHeap: return "shmem_heap";
    case MemTag::kMailbox: return "mailbox";
    case MemTag::kPhaseTable: return "phase_table";
    case MemTag::kCoef: return "coef";
    case MemTag::kOracle: return "oracle";
    case MemTag::kOther: return "other";
  }
  return "other";
}

int env_memtrack() {
  static const int v = [] {
    const char* e = std::getenv("SVSIM_MEMTRACK");
    if (e == nullptr || *e == '\0') return 1;
    return std::atoi(e) != 0 ? 1 : 0;
  }();
  return v;
}

MemRegistry& MemRegistry::global() {
  // Deliberately not leaked (unlike Httpd/Trace): the destructor joins
  // the sampler thread, so TSan sees every thread accounted for at exit.
  // The sampler publishes gauges into Registry::global() until joined, so
  // that Registry is built first and therefore destroyed after this one.
  Registry::global();
  static MemRegistry reg;
  return reg;
}

MemRegistry::MemRegistry() : enabled_(env_memtrack() != 0) {
  if (const char* e = std::getenv("SVSIM_MEMTRACK_MS")) {
    const int ms = std::atoi(e);
    if (ms > 0) interval_ms_ = ms;
  }
}

void MemRegistry::apply_delta_locked(MemTag tag, std::int64_t delta, int pe) {
  const auto apply = [delta](std::uint64_t* cur) {
    if (delta >= 0) {
      *cur += static_cast<std::uint64_t>(delta);
    } else {
      const std::uint64_t dec = static_cast<std::uint64_t>(-delta);
      *cur = *cur > dec ? *cur - dec : 0; // clamp: enable/disable races
    }
  };
  apply(&current_);
  if (current_ > peak_) {
    peak_ = current_;
    peak_ts_us_ = trace_now_us();
  }
  MemorySnapshot::TagStat& t = by_tag_[static_cast<int>(tag)];
  apply(&t.current);
  if (t.current > t.peak) t.peak = t.current;
  if (pe >= 0) {
    PeCount& p = per_pe_[pe];
    apply(&p.current);
    if (p.current > p.peak) p.peak = p.current;
  }
  Registry::global().gauge("mem.tracked_bytes").set(
      static_cast<double>(current_));
  Registry::global().gauge("mem.tracked_peak_bytes").set(
      static_cast<double>(peak_));
}

std::uint64_t MemRegistry::track(MemTag tag, const void* ptr,
                                 std::size_t bytes, int pe) {
  if (!enabled() || bytes == 0) return 0;
  ensure_baseline();
  bool want_sampler = false;
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_id_++;
    live_[id] = Record{tag, ptr, bytes, pe, -1};
    apply_delta_locked(tag, static_cast<std::int64_t>(bytes), pe);
    want_sampler = !thread_run_.load(std::memory_order_relaxed);
  }
  if (want_sampler) {
    std::lock_guard<std::mutex> lock(thread_mu_);
    if (!thread_run_.load(std::memory_order_relaxed)) {
      if (thread_.joinable()) thread_.join(); // reap a self-stopped run
      thread_exited_.store(false, std::memory_order_relaxed);
      thread_run_.store(true, std::memory_order_relaxed);
      thread_ = std::thread([this] { sampler_loop(); });
    }
  }
  return id;
}

void MemRegistry::untrack(std::uint64_t id) {
  if (id == 0) return;
  bool idle = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = live_.find(id);
    if (it == live_.end()) return;
    apply_delta_locked(it->second.tag,
                       -static_cast<std::int64_t>(it->second.bytes),
                       it->second.pe);
    live_.erase(it);
    idle = live_.empty() && current_ == 0;
  }
  // With nothing left to watch the sampler winds itself down; the next
  // track() (or the destructor) joins the exited thread.
  if (idle) thread_run_.store(false, std::memory_order_relaxed);
}

void MemRegistry::adjust(MemTag tag, std::int64_t delta, int pe) {
  if (!enabled() || delta == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  apply_delta_locked(tag, delta, pe);
}

void MemRegistry::ensure_baseline() {
  std::lock_guard<std::mutex> lock(mu_);
  if (baseline_done_) return;
  baseline_done_ = true;
  std::string text;
  if (slurp_file(proc_root_ + "/status", &text)) {
    parse_kb(text, "VmRSS:", &baseline_rss_);
  }
}

void MemRegistry::sample_proc_locked(bool deep) {
  std::string text;
  if (!slurp_file(proc_root_ + "/status", &text)) {
    sampled_ok_ = false;
    sample_error_ = "cannot read " + proc_root_ + "/status";
    return;
  }
  std::uint64_t rss = 0;
  std::uint64_t hwm = 0;
  if (!parse_kb(text, "VmRSS:", &rss)) {
    sampled_ok_ = false;
    sample_error_ = "no VmRSS in " + proc_root_ + "/status";
    return;
  }
  parse_kb(text, "VmHWM:", &hwm);
  rss_bytes_ = rss;
  if (hwm > hwm_bytes_) hwm_bytes_ = hwm;
  // smaps_rollup walks every VMA under mmap_lock and costs ~10x a status
  // read, so only deep ticks pay for it (THP coverage moves slowly).
  // Its absence on older kernels is not an error.
  if (deep) {
    std::string rollup;
    if (slurp_file(proc_root_ + "/smaps_rollup", &rollup)) {
      parse_kb(rollup, "AnonHugePages:", &thp_bytes_);
    }
  }
  sampled_ok_ = true;
  sample_error_.clear();
  ++samples_;
  Registry::global().gauge("mem.rss_bytes").set(static_cast<double>(rss));
  Registry::global().gauge("mem.hwm_bytes").set(
      static_cast<double>(hwm_bytes_));
  if (thp_bytes_ != 0) {
    Registry::global().gauge("mem.thp_bytes").set(
        static_cast<double>(thp_bytes_));
  }
}

void MemRegistry::sample_numa_locked() {
  if (numa_forced_off_.load(std::memory_order_relaxed)) {
    numa_ok_ = false;
    numa_error_ = "forced unavailable (test)";
    return;
  }
#if !defined(__linux__)
  numa_ok_ = false;
  numa_error_ = "NUMA page queries need Linux";
#else
  if (live_.empty()) return;
  const long page = sysconf(_SC_PAGESIZE);
  if (page <= 0) return;
  std::vector<std::uint64_t> node_bytes;
  bool any = false;
  for (auto& [id, rec] : live_) {
    (void)id;
    if (rec.ptr == nullptr || rec.bytes < static_cast<std::uint64_t>(page)) {
      continue;
    }
    // Sample up to 16 evenly spaced pages of the buffer; the placement
    // estimate weights the buffer's bytes by the sampled distribution.
    constexpr int kMaxPages = 16;
    const std::uint64_t n_pages = rec.bytes / static_cast<std::uint64_t>(page);
    const int n = n_pages < kMaxPages ? static_cast<int>(n_pages) : kMaxPages;
    void* pages[kMaxPages];
    int status[kMaxPages];
    const char* base = static_cast<const char*>(rec.ptr);
    for (int i = 0; i < n; ++i) {
      const std::uint64_t pidx =
          n_pages * static_cast<std::uint64_t>(i) / static_cast<std::uint64_t>(n);
      pages[i] = const_cast<char*>(base) +
                 pidx * static_cast<std::uint64_t>(page);
    }
    long rc = -1;
#if defined(SYS_move_pages)
    rc = syscall(SYS_move_pages, 0, static_cast<unsigned long>(n), pages,
                 nullptr, status, 0);
#else
    errno = ENOSYS;
#endif
    if (rc != 0) {
      // Containers commonly deny move_pages; one get_mempolicy probe of
      // the first page is the cheaper fallback.
      int node = -1;
      long rc2 = -1;
#if defined(SYS_get_mempolicy)
      rc2 = syscall(SYS_get_mempolicy, &node, nullptr, 0, pages[0],
                    kMpolFNode | kMpolFAddr);
#endif
      if (rc2 != 0) {
        numa_ok_ = false;
        numa_error_ = std::string("move_pages/get_mempolicy unavailable: ") +
                      std::strerror(errno);
        return;
      }
      for (int i = 0; i < n; ++i) status[i] = node;
    }
    int counts[kMaxPages] = {}; // per-distinct-node page tallies
    int best_node = -1;
    int best_count = 0;
    int max_node = -1;
    for (int i = 0; i < n; ++i) {
      if (status[i] < 0) continue; // unmapped page (never touched)
      if (status[i] > max_node) max_node = status[i];
    }
    if (max_node >= 0) {
      if (static_cast<std::size_t>(max_node) + 1 > node_bytes.size()) {
        node_bytes.resize(static_cast<std::size_t>(max_node) + 1, 0);
      }
      int mapped = 0;
      for (int i = 0; i < n; ++i) {
        if (status[i] < 0) continue;
        ++mapped;
        const int slot = status[i] % kMaxPages;
        if (++counts[slot] > best_count) {
          best_count = counts[slot];
          best_node = status[i];
        }
      }
      for (int i = 0; i < n; ++i) {
        if (status[i] < 0) continue;
        node_bytes[static_cast<std::size_t>(status[i])] +=
            rec.bytes / static_cast<std::uint64_t>(mapped);
      }
      rec.node = best_node;
      any = true;
    }
  }
  if (any) {
    numa_ok_ = true;
    numa_error_.clear();
    node_bytes_ = std::move(node_bytes);
    for (auto& [pe, cnt] : per_pe_) {
      // Dominant node of the PE's largest live buffer wins.
      std::uint64_t best = 0;
      for (const auto& [id, rec] : live_) {
        (void)id;
        if (rec.pe == pe && rec.node >= 0 && rec.bytes > best) {
          best = rec.bytes;
          cnt.node = rec.node;
        }
      }
    }
  }
#endif
}

void MemRegistry::sample_now() {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  sample_proc_locked(true);
  sample_numa_locked();
}

void MemRegistry::sampler_loop() {
  int tick = 0;
  while (thread_run_.load(std::memory_order_relaxed)) {
    // On a core-saturated host every microsecond this thread burns comes
    // straight off a worker PE's wall clock, so the steady-state tick is
    // just the VmRSS/VmHWM read; the expensive parts — smaps_rollup and
    // the move_pages NUMA walk — run on every 8th tick (200 ms at the
    // default cadence), which is plenty for placement that only changes
    // at allocation time.
    const bool deep = tick % 8 == 0;
    if (enabled()) {
      std::lock_guard<std::mutex> lock(mu_);
      sample_proc_locked(deep);
      if (deep) sample_numa_locked();
    }
    // The RSS counter track rewrites the trace file per sample; emit at
    // a quarter of the sampler cadence to keep that cheap.
    if (tick % 4 == 0 && Trace::global().enabled()) {
      std::uint64_t rss = 0;
      {
        std::lock_guard<std::mutex> lock(mu_);
        rss = rss_bytes_;
      }
      if (rss != 0) {
        Trace::global().flush_counter("mem", "rss_mb", trace_now_us(),
                                      static_cast<double>(rss) / 1e6);
      }
    }
    ++tick;
    // Sleep in small slices so stop() latency stays low.
    int left = interval_ms_;
    while (left > 0 && thread_run_.load(std::memory_order_relaxed)) {
      const int slice = left < 5 ? left : 5;
      std::this_thread::sleep_for(std::chrono::milliseconds(slice));
      left -= slice;
    }
  }
  thread_exited_.store(true, std::memory_order_relaxed);
}

void MemRegistry::stop_sampler() {
  std::lock_guard<std::mutex> lock(thread_mu_);
  thread_run_.store(false, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
}

MemorySnapshot MemRegistry::snapshot() const {
  MemorySnapshot snap;
  snap.enabled = enabled();
  std::lock_guard<std::mutex> lock(mu_);
  snap.current = current_;
  snap.peak = peak_;
  snap.peak_ts_us = peak_ts_us_;
  for (int i = 0; i < kNumMemTags; ++i) snap.by_tag[i] = by_tag_[i];
  for (const auto& [pe, cnt] : per_pe_) {
    MemorySnapshot::PeStat p;
    p.pe = pe;
    p.current = cnt.current;
    p.peak = cnt.peak;
    p.node = cnt.node;
    snap.per_pe.push_back(p);
  }
  snap.sampled = sampled_ok_;
  snap.sample_error = sample_error_;
  snap.rss_bytes = rss_bytes_;
  snap.hwm_bytes = hwm_bytes_;
  snap.baseline_rss = baseline_rss_;
  snap.thp_bytes = thp_bytes_;
  snap.samples = samples_;
  snap.numa = numa_ok_;
  snap.numa_error = numa_error_;
  snap.node_bytes = node_bytes_;
  return snap;
}

void MemRegistry::reset_peaks_for_testing() {
  std::lock_guard<std::mutex> lock(mu_);
  peak_ = current_;
  peak_ts_us_ = trace_now_us();
  for (auto& t : by_tag_) t.peak = t.current;
  for (auto& [pe, cnt] : per_pe_) {
    (void)pe;
    cnt.peak = cnt.current;
  }
}

void MemRegistry::set_proc_root_for_testing(const std::string& root) {
  std::lock_guard<std::mutex> lock(mu_);
  proc_root_ = root;
  sampled_ok_ = false;
  sample_error_.clear();
  samples_ = 0;
}

void MemRegistry::force_numa_unavailable_for_testing(bool on) {
  numa_forced_off_.store(on, std::memory_order_relaxed);
}

namespace {

void append_u64(std::ostringstream& os, std::uint64_t v) {
  os << static_cast<unsigned long long>(v);
}

void append_quoted(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    if (static_cast<unsigned char>(c) >= 0x20) os << c;
  }
  os << '"';
}

} // namespace

std::string memory_json(const MemorySnapshot& snap) {
  std::ostringstream os;
  os << "{\"schema\":\"svsim-memory-v1\",\"enabled\":"
     << (snap.enabled ? "true" : "false");
  os << ",\"tracked_bytes\":";
  append_u64(os, snap.current);
  os << ",\"tracked_peak\":";
  append_u64(os, snap.peak);
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", snap.peak_ts_us);
  os << ",\"peak_ts_us\":" << buf;
  os << ",\"tags\":[";
  bool first = true;
  for (int i = 0; i < kNumMemTags; ++i) {
    const MemorySnapshot::TagStat& t = snap.by_tag[i];
    if (t.current == 0 && t.peak == 0) continue;
    if (!first) os << ',';
    first = false;
    os << "{\"tag\":\"" << mem_tag_name(static_cast<MemTag>(i))
       << "\",\"current\":";
    append_u64(os, t.current);
    os << ",\"peak\":";
    append_u64(os, t.peak);
    os << '}';
  }
  os << "],\"per_pe\":[";
  for (std::size_t i = 0; i < snap.per_pe.size(); ++i) {
    const MemorySnapshot::PeStat& p = snap.per_pe[i];
    if (i != 0) os << ',';
    os << "{\"pe\":" << p.pe << ",\"current\":";
    append_u64(os, p.current);
    os << ",\"peak\":";
    append_u64(os, p.peak);
    os << ",\"node\":" << p.node << '}';
  }
  os << "],\"sampled\":" << (snap.sampled ? "true" : "false")
     << ",\"sample_error\":";
  append_quoted(os, snap.sample_error);
  os << ",\"rss_bytes\":";
  append_u64(os, snap.rss_bytes);
  os << ",\"hwm_bytes\":";
  append_u64(os, snap.hwm_bytes);
  os << ",\"baseline_rss\":";
  append_u64(os, snap.baseline_rss);
  os << ",\"thp_bytes\":";
  append_u64(os, snap.thp_bytes);
  os << ",\"samples\":";
  append_u64(os, snap.samples);
  os << ",\"numa\":" << (snap.numa ? "true" : "false") << ",\"numa_error\":";
  append_quoted(os, snap.numa_error);
  os << ",\"node_bytes\":[";
  for (std::size_t i = 0; i < snap.node_bytes.size(); ++i) {
    if (i != 0) os << ',';
    append_u64(os, snap.node_bytes[i]);
  }
  os << "]}";
  return os.str();
}

void fold_memory(RunReport& report) {
  report.memory = MemoryStats{};
  MemRegistry& reg = MemRegistry::global();
  if (!reg.enabled()) return;
  reg.sample_now();
  const MemorySnapshot snap = reg.snapshot();
  MemoryStats& m = report.memory;
  m.enabled = true;
  m.tracked_bytes = snap.current;
  m.tracked_peak = snap.peak;
  m.peak_ts_us = snap.peak_ts_us;
  for (int i = 0; i < kNumMemTags; ++i) {
    const MemorySnapshot::TagStat& t = snap.by_tag[i];
    if (t.current == 0 && t.peak == 0) continue;
    m.tags.push_back({mem_tag_name(static_cast<MemTag>(i)), t.current,
                      t.peak});
  }
  for (const MemorySnapshot::PeStat& p : snap.per_pe) {
    m.per_pe.push_back({p.pe, p.current, p.peak, p.node});
  }
  m.sampled = snap.sampled;
  m.sample_error = snap.sample_error;
  m.rss_bytes = snap.rss_bytes;
  m.peak_rss = snap.hwm_bytes > snap.rss_bytes ? snap.hwm_bytes
                                               : snap.rss_bytes;
  m.baseline_rss = snap.baseline_rss;
  m.thp_bytes = snap.thp_bytes;
  m.samples = snap.samples;
  m.numa = snap.numa;
  m.numa_error = snap.numa_error;
  m.node_bytes = snap.node_bytes;

  FootprintQuery q;
  q.backend = report.backend;
  q.n_qubits = report.n_qubits;
  q.workers = report.n_workers;
  q.batch = report.batch;
  q.gates = report.total_gates;
  m.estimated_bytes =
      static_cast<double>(estimate_footprint(q).total_bytes);
}

} // namespace svsim::obs
