#include "host_probe.h"

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <unordered_map>

extern char** environ;

namespace perfbench {

namespace {

// x -> (kMul * x + kAdd) mod 2^24 visits all 2^24 slots in one cycle
// (kAdd odd, kMul = 1 mod 4), so the chase never settles into a short,
// cached loop.
constexpr uint32_t kTableSlots = 1u << 24;  // 64 MiB of uint32_t.
constexpr uint32_t kMul = 2654435761u;
constexpr uint32_t kAdd = 12345;
constexpr int kChaseSteps = 100000;

}  // namespace

HostProbe::HostProbe() : table_(kTableSlots) {
  for (uint32_t i = 0; i < kTableSlots; ++i) {
    table_[i] = (kMul * i + kAdd) & (kTableSlots - 1);
  }
}

double HostProbe::RunMs() {
  auto start = std::chrono::steady_clock::now();
  // Dependent loads: the next address is the value just read, so each
  // step waits for memory.
  uint32_t at = 0;
  for (int i = 0; i < kChaseSteps; ++i) at = table_[at];
  std::vector<uint64_t> keys(1 << 16);
  uint64_t x = 42;
  for (uint64_t& key : keys) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    key = x ^ (x >> 29);
  }
  std::unordered_map<uint64_t, uint32_t> map;
  for (size_t i = 0; i < keys.size(); ++i) {
    map.emplace(keys[i], static_cast<uint32_t>(i));
  }
  uint64_t sum = 0;
  for (size_t i = 0; i < keys.size(); i += 3) sum += map.find(keys[i])->second;
  std::sort(keys.begin(), keys.end());
  // Makes the result observable, so the compiler cannot drop the work.
  uint64_t result = sum + keys[keys.size() / 2] + at;
  asm volatile("" : : "g"(result) : "memory");
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::vector<double> RunHostProbe(const std::string& program, int rounds) {
  int fds[2];
  if (pipe(fds) != 0) return {};
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::string rounds_arg = std::to_string(rounds);
  char* argv[] = {const_cast<char*>(program.c_str()), rounds_arg.data(),
                  nullptr};
  pid_t pid = 0;
  int spawned = posix_spawn(&pid, program.c_str(), &actions, nullptr, argv,
                            environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string text;
  if (spawned == 0) {
    char buf[256];
    ssize_t n = 0;
    while ((n = read(fds[0], buf, sizeof(buf))) != 0) {
      if (n > 0) {
        text.append(buf, static_cast<size_t>(n));
      } else if (errno != EINTR) {
        break;
      }
    }
  }
  close(fds[0]);
  if (spawned != 0) return {};
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return {};
  std::vector<double> times;
  std::istringstream in(text);
  double ms = 0;
  while (in >> ms) times.push_back(ms);
  if (times.size() < static_cast<size_t>(rounds)) return {};
  return times;
}

}  // namespace perfbench
