#ifndef PERFBENCH_HOST_PROBE_H_
#define PERFBENCH_HOST_PROBE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A fixed piece of work that does not involve the engine: a chase of
/// 100,000 dependent random reads through a 64 MiB table, then building
/// and probing a hash map of 2^16 random keys and sorting them. Its time
/// tracks how fast the host runs a process at the moment: clock speed,
/// neighbours on shared cores, and contention for the shared caches and
/// memory, which memory-heavy statements feel most.
class HostProbe {
 public:
  /// Allocates and fills the table, so that probes do not time page
  /// faults.
  HostProbe();
  /// Wall milliseconds of one probe.
  double RunMs();

 private:
  std::vector<uint32_t> table_;
};

/// Runs `program rounds` (the perfbench_probe program) in a child
/// process and waits for it. The child shares only the host with the
/// caller: its own heap, no engine code, so no change to the engine can
/// move its times. Returns the probe times it printed (one per CPU per
/// round), or an empty vector when it could not be started, failed, or
/// printed fewer than `rounds`.
std::vector<double> RunHostProbe(const std::string& program, int rounds);

}  // namespace perfbench

#endif  // PERFBENCH_HOST_PROBE_H_
