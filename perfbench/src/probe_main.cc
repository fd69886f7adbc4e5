// perfbench_probe ROUNDS: times a HostProbe on every CPU this process
// may run on, ROUNDS times over, and prints each time in milliseconds on
// its own line. The benchmark starts it between its set-ups and timed
// passes to gauge the host's speed from a process that shares nothing
// with the engine. The engine's threads move over all CPUs, and on a
// shared host each CPU runs faster or slower with its neighbours, so
// the probe visits each CPU in turn rather than the one it starts on.
#include <malloc.h>
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "host_probe.h"

int main(int argc, char** argv) {
  int rounds = argc == 2 ? std::atoi(argv[1]) : 0;
  if (rounds < 1) {
    std::fprintf(stderr, "usage: perfbench_probe ROUNDS\n");
    return 2;
  }
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    std::perror("perfbench_probe: sched_getaffinity");
    return 1;
  }
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  // Fixed heap thresholds: every probe after the untimed one reuses the
  // memory it touched instead of returning it to the kernel and faulting
  // it in again, so each probe times the same work.
  mallopt(M_MMAP_THRESHOLD, 64 << 20);
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
  perfbench::HostProbe probe;
  probe.RunMs();
  for (int round = 0; round < rounds; ++round) {
    for (int cpu : cpus) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      if (sched_setaffinity(0, sizeof(one), &one) != 0) {
        std::perror("perfbench_probe: sched_setaffinity");
        return 1;
      }
      std::printf("%.17g\n", probe.RunMs());
    }
  }
  return 0;
}
