#include "roof.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <thread>

namespace perfbench {

namespace {

std::size_t read_cache(const char* index) {
  std::ifstream in(std::string("/sys/devices/system/cpu/cpu0/cache/") + index +
                   "/size");
  std::size_t v = 0;
  char unit = 0;
  if (!(in >> v)) return 0;
  in >> unit;
  if (unit == 'K') v <<= 10;
  if (unit == 'M') v <<= 20;
  return v;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One thread's share: three arrays of n doubles, first-touched here.
struct Share {
  std::unique_ptr<double[]> a, b, c;
  std::size_t n = 0;
};

void triad(Share& s, int iters) {
  double* __restrict a = s.a.get();
  const double* __restrict b = s.b.get();
  const double* __restrict c = s.c.get();
  for (int it = 0; it < iters; ++it) {
    for (std::size_t i = 0; i < s.n; ++i) a[i] = b[i] + 3.0 * c[i];
    asm volatile("" ::: "memory");
  }
}

// Seconds for `iters` triads over every share, all threads in parallel.
double timed(std::vector<Share>& shares, int iters) {
  const double t0 = now_s();
  std::vector<std::thread> team;
  for (std::size_t t = 1; t < shares.size(); ++t) {
    team.emplace_back([&shares, t, iters] { triad(shares[t], iters); });
  }
  triad(shares[0], iters);
  for (std::thread& th : team) th.join();
  return now_s() - t0;
}

TriadPoint measure(const char* level, std::size_t array_bytes, int threads) {
  const std::size_t n_total = array_bytes / sizeof(double);
  const std::size_t n = n_total / static_cast<std::size_t>(threads);
  std::vector<Share> shares(static_cast<std::size_t>(threads));
  std::vector<std::thread> team;
  for (Share& s : shares) {
    team.emplace_back([&s, n] {
      s.n = n;
      s.a.reset(new double[n]);
      s.b.reset(new double[n]);
      s.c.reset(new double[n]);
      std::fill_n(s.a.get(), n, 0.0);
      std::fill_n(s.b.get(), n, 1.0);
      std::fill_n(s.c.get(), n, 2.0);
    });
  }
  for (std::thread& th : team) th.join();

  const double bytes = 24.0 * static_cast<double>(n) * threads;
  // Enough passes per repetition that each timing moves >= ~256 MB.
  const int iters = static_cast<int>(std::max(1.0, 256e6 / bytes));
  timed(shares, iters); // warm-up
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) best = std::min(best, timed(shares, iters));

  TriadPoint p;
  p.level = level;
  p.threads = threads;
  p.array_bytes = n * sizeof(double) * static_cast<std::size_t>(threads);
  p.total_bytes = 3 * p.array_bytes;
  p.gbps = bytes * iters / best * 1e-9;
  return p;
}

} // namespace

CacheSizes host_caches() {
  CacheSizes c;
  if (std::size_t v = read_cache("index2")) c.l2 = v;
  if (std::size_t v = read_cache("index3")) c.llc = v;
  return c;
}

std::vector<TriadPoint> triad_probe(const CacheSizes& caches, int threads) {
  std::vector<TriadPoint> out;
  for (int t : {1, threads}) {
    // L2: each thread's three arrays fill half of its own L2.
    out.push_back(measure("l2", caches.l2 / 6 * static_cast<std::size_t>(t), t));
    // LLC: all three arrays together fill half of the shared LLC.
    out.push_back(measure("llc", caches.llc / 6, t));
    // DRAM: every array is at least 4x the LLC.
    out.push_back(measure("dram", caches.llc * 4, t));
    if (threads == 1) break;
  }
  return out;
}

} // namespace perfbench
