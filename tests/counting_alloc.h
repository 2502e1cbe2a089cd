// Global counting allocator shared by the allocation gates: the E17/E18/E19
// benches (bench_engine, bench_overlay, bench_shard) and engine_alloc_test.
//
// Linking the `pandora_counting_alloc` object library into a binary replaces
// the global operator new/delete family with versions that bump one process
// counter and forward to malloc/free.  The counter is a relaxed atomic:
// sharded runs allocate from several worker threads at once, and the total
// is exact whatever the interleaving.  Callers read it around a measured
// region; the difference is the region's heap calls.
#ifndef PANDORA_TESTS_COUNTING_ALLOC_H_
#define PANDORA_TESTS_COUNTING_ALLOC_H_

#include <cstdint>

namespace pandora {

// operator new calls (every variant) since process start.
uint64_t AllocCount();

// Debugging aid: while armed, every counted allocation also prints a
// backtrace to stderr, so a stray allocation in a measured pass can be found
// (bench_engine arms it under PANDORA_BENCH_TRAP=1).
void SetAllocTrap(bool armed);

}  // namespace pandora

#endif  // PANDORA_TESTS_COUNTING_ALLOC_H_
