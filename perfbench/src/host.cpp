#include "host.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (in) std::getline(in, line);
  return line;
}

/// Parses a sysfs cache size such as "48K", "2048K" or "300M".
std::size_t parse_cache_size(const std::string& text) {
  std::size_t value = 0;
  std::size_t i = 0;
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
    value = value * 10 + static_cast<std::size_t>(text[i] - '0');
    ++i;
  }
  if (i < text.size()) {
    switch (text[i]) {
      case 'K':
        value <<= 10;
        break;
      case 'M':
        value <<= 20;
        break;
      case 'G':
        value <<= 30;
        break;
      default:
        break;
    }
  }
  return value;
}

}  // namespace

std::size_t HostInfo::l1d_bytes() const {
  for (const auto& c : caches) {
    if (c.level == 1) return c.size_bytes;
  }
  return 0;
}

std::size_t HostInfo::l2_bytes() const {
  for (const auto& c : caches) {
    if (c.level == 2) return c.size_bytes;
  }
  return 0;
}

std::size_t HostInfo::llc_bytes() const {
  return caches.empty() ? 0 : caches.back().size_bytes;
}

HostInfo read_host() {
  HostInfo host;
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) == 0) {
        const auto colon = line.find(':');
        if (colon != std::string::npos) host.cpu_model = line.substr(colon + 2);
        break;
      }
    }
  }
  host.nproc = std::thread::hardware_concurrency();
  {
    std::ifstream in("/proc/meminfo");
    std::string key;
    std::uint64_t kb = 0;
    if (in >> key >> kb && key == "MemTotal:") host.ram_bytes = kb << 10;
  }
  for (unsigned idx = 0; idx < 8; ++idx) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx) + "/";
    const std::string level = read_first_line(dir + "level");
    if (level.empty()) break;
    CacheLevelInfo c;
    c.level = static_cast<unsigned>(std::stoul(level));
    c.type = read_first_line(dir + "type");
    if (c.type == "Instruction") continue;
    c.size_bytes = parse_cache_size(read_first_line(dir + "size"));
    const std::string line = read_first_line(dir + "coherency_line_size");
    const std::string ways = read_first_line(dir + "ways_of_associativity");
    if (!line.empty()) c.line_bytes = std::stoul(line);
    if (!ways.empty()) c.ways = std::max<std::size_t>(1, std::stoul(ways));
    if (c.size_bytes > 0) host.caches.push_back(c);
  }
  std::sort(host.caches.begin(), host.caches.end(),
            [](const auto& a, const auto& b) { return a.level < b.level; });
  host.geometry_from_sysfs = host.caches.size() >= 2;
  if (!host.geometry_from_sysfs) {
    host.caches = {{1, "Data", 48u << 10, 64, 12},
                   {2, "Unified", 2u << 20, 64, 16},
                   {3, "Unified", 32u << 20, 64, 16}};
  }
#if defined(__clang__)
  host.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  host.compiler = "gcc " __VERSION__;
#else
  host.compiler = "unknown";
#endif
  return host;
}

ihtl::telemetry::JsonValue host_json(const HostInfo& host) {
  using ihtl::telemetry::JsonValue;
  JsonValue h = JsonValue::object();
  h.set("cpu_model", host.cpu_model);
  h.set("nproc", static_cast<std::uint64_t>(host.nproc));
  h.set("ram_bytes", host.ram_bytes);
  h.set("compiler", host.compiler);
  h.set("l1d_bytes", static_cast<std::uint64_t>(host.l1d_bytes()));
  h.set("l2_bytes", static_cast<std::uint64_t>(host.l2_bytes()));
  h.set("llc_bytes", static_cast<std::uint64_t>(host.llc_bytes()));
  h.set("cache_geometry_source",
        host.geometry_from_sysfs ? "sysfs" : "fallback (sysfs unreadable)");
  JsonValue levels = JsonValue::array();
  for (const auto& c : host.caches) {
    JsonValue l = JsonValue::object();
    l.set("level", static_cast<std::uint64_t>(c.level));
    l.set("type", c.type);
    l.set("size_bytes", static_cast<std::uint64_t>(c.size_bytes));
    l.set("line_bytes", static_cast<std::uint64_t>(c.line_bytes));
    l.set("ways", static_cast<std::uint64_t>(c.ways));
    levels.push_back(std::move(l));
  }
  h.set("caches", std::move(levels));
  return h;
}

ihtl::CacheHierarchy host_cache_hierarchy(const HostInfo& host) {
  std::vector<ihtl::CacheConfig> levels;
  for (const auto& c : host.caches) {
    ihtl::CacheConfig cfg;
    cfg.line_bytes = c.line_bytes;
    cfg.ways = c.ways;
    // The simulator needs a whole number of sets.
    cfg.size_bytes = std::max(c.size_bytes / (c.line_bytes * c.ways), std::size_t{1}) *
                     c.line_bytes * c.ways;
    levels.push_back(cfg);
  }
  return ihtl::CacheHierarchy(std::move(levels));
}

CpuTicks read_cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuTicks t;
  if (!(in >> cpu) || cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double steal_share(const CpuTicks& from, const CpuTicks& to) {
  const auto total = static_cast<double>(to.total - from.total);
  return total > 0 ? static_cast<double>(to.steal - from.steal) / total : 0.0;
}

std::uint64_t proc_status_bytes(pid_t pid, const char* field) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      std::istringstream ss(line.substr(key.size()));
      std::uint64_t kb = 0;
      ss >> kb;
      return kb << 10;
    }
  }
  return 0;
}

}  // namespace perfbench
