// Process-wide heap accounting for the benchmark binary.
//
// counting_alloc.cc replaces the global operator new/delete family.  Every
// allocation bumps a relaxed atomic counter (shard workers allocate
// concurrently; the total is exact, the order irrelevant), and live heap
// bytes are tracked through malloc_usable_size so set-up footprints can be
// read as a difference.
#ifndef PERFBENCH_COUNTING_ALLOC_H_
#define PERFBENCH_COUNTING_ALLOC_H_

#include <cstdint>

namespace perfbench {

// operator new calls since process start.
uint64_t AllocCount();
// Heap bytes currently held through operator new (usable sizes).
int64_t LiveHeapBytes();

}  // namespace perfbench

#endif  // PERFBENCH_COUNTING_ALLOC_H_
