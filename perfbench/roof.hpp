// Host roof probe: STREAM triad (a[i] = b[i] + s * c[i]) at working sets
// sized for the L2, the LLC and DRAM, on 1 thread and on `threads`
// threads. Bytes are counted STREAM-style (24 per element: two reads, one
// write, no write-allocate); the best of several repetitions is kept.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

struct CacheSizes {
  std::size_t l2 = 2u << 20;   // per core
  std::size_t llc = 32u << 20; // shared
};

/// L2 / LLC sizes from sysfs (cpu0), defaults when unreadable.
CacheSizes host_caches();

struct TriadPoint {
  std::string level;         // l2 | llc | dram
  int threads = 1;
  std::size_t array_bytes = 0; // one of the three arrays, per thread share summed
  std::size_t total_bytes = 0; // all three arrays
  double gbps = 0;
};

/// Run the probe. DRAM arrays are each at least 4x the LLC.
std::vector<TriadPoint> triad_probe(const CacheSizes& caches, int threads);

} // namespace perfbench
