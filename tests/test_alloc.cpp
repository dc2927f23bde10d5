// The round engine's zero-allocation contract (DESIGN.md §15): once a pooled
// RoundEngine has run every schedule cell on one initial configuration, its
// automata, inboxes, checkpoint chain and traced-delivery buffer have all
// reached their working sizes, and every message payload fits inline — so
// each further execute() makes no heap allocation at all, with delivery
// tracing on or off.
//
// This binary replaces the global operator new/delete with a counting
// wrapper, which is why it is its own test executable.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "analysis/abstract_interp.hpp"
#include "consensus/registry.hpp"
#include "rounds/engine.hpp"

namespace {
std::int64_t gAllocations = 0;  // every global operator new, process-wide

void* countedAlloc(std::size_t size) {
  ++gAllocations;
  return std::malloc(size == 0 ? 1 : size);
}

void* countedAlignedAlloc(std::size_t size, std::align_val_t align) {
  ++gAllocations;
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(a, (size + a - 1) / a * a);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = countedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return countedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return countedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = countedAlignedAlloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ssvsp {
namespace {

TEST(EngineAllocations, SteadyStateRunsAllocateNothing) {
  for (const AlgorithmEntry& entry : algorithmRegistry()) {
    const RoundConfig base = canonicalAnalysisConfig(entry);
    const RoundConfig cfg{base.t + 3, base.t};
    const std::vector<FailureScript> cells =
        enumerateScheduleCells(cfg, entry.intendedModel);
    const std::vector<std::vector<Value>> configs = canonicalConfigs(cfg.n);
    ASSERT_FALSE(cells.empty());

    for (const bool traced : {false, true}) {
      SCOPED_TRACE(entry.name + (traced ? " traced" : " untraced"));
      // The interpreter's options (interpretAutomaton): horizon t + 3, no
      // early stop.
      RoundEngineOptions options;
      options.horizon = cfg.t + 3;
      options.traceDeliveries = traced;
      options.stopWhenAllDecided = false;
      const std::int64_t start = gAllocations;
      RoundEngine engine(cfg, entry.intendedModel, entry.factory, options);
      for (const FailureScript& script : cells)
        engine.execute(configs.front(), script);  // warm-up
      // The wrapper is live: the warm-up allocated the pooled automata.
      ASSERT_GE(gAllocations - start, cfg.n);

      std::int64_t worst = 0;
      std::string worstRun;
      for (std::size_t ci = 0; ci < configs.size(); ++ci) {
        for (const FailureScript& script : cells) {
          const std::int64_t before = gAllocations;
          engine.execute(configs[ci], script);
          const std::int64_t made = gAllocations - before;
          if (made > worst) {
            worst = made;
            worstRun = "config " + std::to_string(ci) + " " +
                       script.toString();
          }
        }
      }
      EXPECT_EQ(worst, 0) << "n=" << cfg.n << " t=" << cfg.t << ": "
                          << worstRun;
    }
  }
}

}  // namespace
}  // namespace ssvsp
