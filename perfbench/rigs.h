// Layer rigs: host nanoseconds per unit of work, from timed calls into one
// layer's public entry points, fed with a workload's own segment sizes and
// fan-out.  Each rig is warmed by one discarded repetition and reports the
// median of the timed ones.
#ifndef PERFBENCH_RIGS_H_
#define PERFBENCH_RIGS_H_

#include <string>

#include "harness.h"
#include "workloads.h"

namespace perfbench {

// Sets every rig metric in `out`.  A rig whose layer the workload does not
// run reports 0.  Returns an empty string, or what a rig found wrong with
// the layer's output.
std::string RunRigs(const RigInputs& in, SpanLog* spans, MetricList* out);

}  // namespace perfbench

#endif  // PERFBENCH_RIGS_H_
