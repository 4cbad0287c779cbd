// Host provenance and cache regime: CPU model, core count, the data-cache
// geometry from /sys/devices/system/cpu/cpu0/cache, RAM and compiler. The
// geometry also sizes the cache simulator, so simulated misses are for this
// host's caches, not a hard-coded machine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <sys/types.h>
#include <vector>

#include "cachesim/cache.h"
#include "telemetry/json.h"

namespace perfbench {

struct CacheLevelInfo {
  unsigned level = 0;
  std::string type;  ///< "Data", "Instruction" or "Unified"
  std::size_t size_bytes = 0;
  std::size_t line_bytes = 64;
  std::size_t ways = 8;
};

struct HostInfo {
  std::string cpu_model = "unknown";
  unsigned nproc = 0;
  std::vector<CacheLevelInfo> caches;  ///< data and unified levels only
  std::uint64_t ram_bytes = 0;
  std::string compiler;
  bool geometry_from_sysfs = false;

  std::size_t l1d_bytes() const;
  std::size_t l2_bytes() const;
  std::size_t llc_bytes() const;
};

/// Reads the host description. Missing sysfs entries fall back to a
/// 48 KiB / 2 MiB / 32 MiB hierarchy and geometry_from_sysfs = false.
HostInfo read_host();

ihtl::telemetry::JsonValue host_json(const HostInfo& host);

/// Simulator hierarchy with the host's data-cache levels (L1d, L2, LLC).
ihtl::CacheHierarchy host_cache_hierarchy(const HostInfo& host);

/// "VmRSS" / "VmHWM" of a process from /proc/<pid>/status (pid 0 = self),
/// in bytes; 0 when unreadable.
std::uint64_t proc_status_bytes(pid_t pid, const char* field);

/// Aggregate CPU time of the host from /proc/stat, in clock ticks: all of
/// it, and the part the hypervisor ran something else while this VM's
/// vCPUs wanted to run ("steal"). The steal share over a run tells how much
/// of its noise came from neighbours on the host.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTicks read_cpu_ticks();
/// Steal ticks between two readings as a share of all ticks (0 when none).
double steal_share(const CpuTicks& from, const CpuTicks& to);

}  // namespace perfbench
