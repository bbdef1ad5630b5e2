// Host heap cost of one simulated Thing at Deployment::AddThing, before
// anything is plugged.  A fleet of 10k Things pays this 10k times, so it
// bounds peak RSS for every fleet-scale bench.  The counter is the global
// allocation functions, replaced below; this file is its own executable, so
// the replacement counts this test's allocations only.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "src/core/deployment.h"

namespace {

size_t g_bytes = 0;
size_t g_allocations = 0;
// Allocation counts by block size while `g_histogram_on`; the last bucket
// collects every block of kHistogramSizes bytes or more.
constexpr size_t kHistogramSizes = 2048;
std::array<size_t, kHistogramSizes + 1> g_by_size{};
bool g_histogram_on = false;

}  // namespace

void* operator new(std::size_t size) {
  g_bytes += size;
  ++g_allocations;
  if (g_histogram_on) {
    ++g_by_size[std::min(size, kHistogramSizes)];
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace micropnp {
namespace {

TEST(Footprint, HeapPerAddThing) {
  constexpr int kWarmup = 100;
  constexpr int kThings = 1000;
  Deployment deployment;
  for (int i = 0; i < kWarmup; ++i) {
    deployment.AddThing(std::string("w") += std::to_string(i));
  }

  const size_t bytes_before = g_bytes;
  const size_t allocations_before = g_allocations;
  g_histogram_on = true;
  for (int i = 0; i < kThings; ++i) {
    deployment.AddThing(std::string("t") += std::to_string(i));
  }
  g_histogram_on = false;
  const double bytes = static_cast<double>(g_bytes - bytes_before) / kThings;
  const double allocations = static_cast<double>(g_allocations - allocations_before) / kThings;

  std::printf("heap per AddThing: %.0f B in %.2f allocations; sizeof(MicroPnpThing) = %zu B\n",
              bytes, allocations, sizeof(MicroPnpThing));
  std::printf("blocks per Thing (size: count):");
  for (size_t size = 0; size <= kHistogramSizes; ++size) {
    if (g_by_size[size] >= kThings) {
      std::printf(" %zu%s: %.2f", size, size == kHistogramSizes ? "+" : "",
                  static_cast<double>(g_by_size[size]) / kThings);
    }
  }
  std::printf("\n");

  EXPECT_LE(bytes, 7168.0);
}

}  // namespace
}  // namespace micropnp
