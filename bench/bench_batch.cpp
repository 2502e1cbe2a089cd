// E20: end-to-end pipeline cost on a real call mesh.
//
// Four audio boxes in a WAN call ring, one circuit per edge, every box
// stage moving one segment per wakeup.  This reports:
//
//   sim rate      simulated seconds per wall-clock second — the real price
//                 of running an experiment
//   events/sec    wall-clock scheduler dispatches per second
//   latency max   worst end-to-end audio block latency observed at any
//                 box's mixer (mixing time minus source timestamp).  The
//                 max bounds the p99 from above; compare it with the
//                 paper's 10-20 ms end-to-end budget for interactive audio
//                 (section 2).
//
// Claims gated in CI:
//   - the latency max/mean and delivery count equal BENCH_batch.json
//     exactly (simulated-time results, so every build leg);
//   - the sim rate stays >= 0.8x BENCH_batch.json (plain build only).
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/buffer/clawback.h"
#include "src/core/box.h"
#include "src/core/simulation.h"
#include "src/runtime/time.h"

namespace pandora {
namespace {

struct RingScore {
  double sim_rate = 0.0;        // simulated seconds per wall second
  double events_per_sec = 0.0;  // dispatches per wall second
  double latency_max_us = 0.0;  // worst e2e audio block latency at any mixer
  double latency_mean_us = 0.0;
  uint64_t delivered = 0;
};

// One cold world: 2 simulated seconds of warmup (clawback converges, every
// pool and slab reaches its high-water mark), then 10 measured simulated
// seconds.  The mixer latency accumulators span the whole run.
RingScore RunRing() {
  SimulationOptions sim_options;
  sim_options.seed = 29;
  Simulation sim(sim_options);

  ClawbackConfig clawback;
  clawback.count_threshold = 16;  // converge within warmup (chaos-suite tuning)

  std::vector<PandoraBox*> boxes;
  for (int i = 0; i < 4; ++i) {
    PandoraBox::Options options;
    options.name = "ring" + std::to_string(i);
    options.with_video = false;
    options.clawback = clawback;
    boxes.push_back(&sim.AddBox(options));
  }
  sim.Start();
  CallPath wan;
  wan.direct.propagation = Millis(1);
  for (int i = 0; i < 4; ++i) {
    sim.SendAudio(*boxes[static_cast<size_t>(i)], *boxes[static_cast<size_t>((i + 1) % 4)], wan);
  }
  sim.RunFor(Seconds(2));

  const uint64_t events_before = sim.scheduler().events();
  const auto wall_before = std::chrono::steady_clock::now();
  sim.RunFor(Seconds(10));
  const auto wall_after = std::chrono::steady_clock::now();
  const uint64_t events = sim.scheduler().events() - events_before;

  RingScore score;
  const double wall_s = std::chrono::duration<double>(wall_after - wall_before).count();
  score.sim_rate = wall_s > 0 ? 10.0 / wall_s : 0.0;
  score.events_per_sec = wall_s > 0 ? static_cast<double>(events) / wall_s : 0.0;
  double weighted_sum = 0.0;
  double samples = 0.0;
  for (PandoraBox* box : boxes) {
    const StatAccumulator& lat = box->mixer().all_latency();
    if (lat.count() == 0) {
      continue;
    }
    score.latency_max_us = std::max(score.latency_max_us, lat.max());
    weighted_sum += lat.Mean() * static_cast<double>(lat.count());
    samples += static_cast<double>(lat.count());
  }
  score.latency_mean_us = samples > 0 ? weighted_sum / samples : 0.0;
  score.delivered = sim.network().total_delivered();
  return score;
}

}  // namespace
}  // namespace pandora

int main(int argc, char** argv) {
  using namespace pandora;
  BenchParseArgs(argc, argv);
  BenchHeader("E20", "4-box call ring end to end (sim rate, e2e latency)",
              "section 2's 10-20 ms end-to-end audio budget; section 3.1's cheap "
              "dispatch is what the sim rate spends");

  const RingScore score = RunRing();
  BenchRow("sim rate", score.sim_rate, "sim-s/s");
  BenchRow("events/sec", score.events_per_sec, "ev/s");
  BenchRow("e2e latency max", score.latency_max_us, "us");
  BenchRow("e2e latency mean", score.latency_mean_us, "us");
  BenchRow("delivered", static_cast<double>(score.delivered), "seg");
  BenchNote("one cold 4-box ring; latency spans warmup too");
  return BenchFinish();
}
