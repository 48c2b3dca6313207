// perfbench_calibrate: a fixed amount of CPU work, used to measure how fast
// the host's cores run at the moment.
//
// Every hardware thread runs the same loop: a switch dispatch over a
// pseudo-random 4096-entry program whose operations do integer arithmetic
// and loads and stores into a private 2 MiB table. That is the shape of the
// epvf interpreter and graph builders (a dispatch loop over memory larger
// than the L2 cache), spread over every core the way a default `--jobs`
// command is. run.py times it (CPU time, from wait4) before every cycle; the
// code is part of the benchmark, so no change to the program moves it.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

namespace {

constexpr uint64_t kTableSize = uint64_t{1} << 19;  // uint32 entries: 2 MiB
constexpr int kRounds = 600;

uint64_t Work(uint64_t seed) {
  std::vector<uint32_t> table(kTableSize);
  std::vector<uint8_t> code(4096);
  uint64_t x = seed;
  for (uint8_t& op : code) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    op = static_cast<uint8_t>(x % 6);
  }
  uint64_t acc = 1;
  for (int round = 0; round < kRounds; ++round) {
    for (uint8_t op : code) {
      switch (op) {
        case 0: acc = acc * 6364136223846793005ull + 1442695040888963407ull; break;
        case 1: acc ^= table[acc & (kTableSize - 1)]; break;
        case 2: table[(acc >> 7) & (kTableSize - 1)] += static_cast<uint32_t>(acc); break;
        case 3: acc += acc >> 3; break;
        case 4: if (acc & 1) acc = ~acc; break;
        default: acc = (acc << 1) | (acc >> 63); break;
      }
    }
  }
  return acc;
}

}  // namespace

int main() {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  std::vector<uint64_t> out(n);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < n; ++t) {
    threads.emplace_back([&out, t] { out[t] = Work(88172645463325252ull + t); });
  }
  for (std::thread& t : threads) t.join();
  uint64_t checksum = 0;
  for (uint64_t v : out) checksum ^= v;
  // Printed so the work cannot be optimized away.
  std::printf("%llu\n", static_cast<unsigned long long>(checksum));
  return 0;
}
