// E20: batched-pipeline sweep — what the batched ingress/egress drains
// (DESIGN.md §15) buy and cost on a real call mesh.
//
// Four audio boxes in a WAN call ring, one circuit per edge, run at
// max_batch = 1/4/16/64.  Per configuration this reports:
//
//   sim rate      simulated seconds per wall-clock second — the real price
//                 of running an experiment; batching exists to raise this
//   events/sec    wall-clock dispatches + batched-drain credits per second
//   latency max   worst end-to-end audio block latency observed at any
//                 box's mixer (mixing time minus source timestamp).  The
//                 max bounds the p99 from above; compare it with the
//                 paper's 10-20 ms end-to-end budget for interactive audio
//                 (section 2).
//
// Claims gated in CI:
//   - every max_batch leaves the latency profile and delivery count
//     IDENTICAL to the legacy max_batch = 1 engine (batch boundaries only
//     harvest work already parked at the same simulated instant — P7
//     unharmed; simulated-time results, so every build leg);
//   - batching never slows the mesh down (plain build: batch = 16 sim-rate
//     >= 0.9x the legacy engine's, and >= 0.8x BENCH_batch.json).
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/buffer/clawback.h"
#include "src/core/box.h"
#include "src/core/simulation.h"
#include "src/runtime/channel.h"
#include "src/runtime/time.h"

namespace pandora {
namespace {

struct BatchScore {
  double sim_rate = 0.0;        // simulated seconds per wall second
  double events_per_sec = 0.0;  // dispatches + batched credits per wall second
  double latency_max_us = 0.0;  // worst e2e audio block latency at any mixer
  double latency_mean_us = 0.0;
  uint64_t delivered = 0;
};

// One cold world per grid point: 2 simulated seconds of warmup (clawback
// converges, every pool and slab reaches its high-water mark), then 10
// measured simulated seconds.  The mixer latency accumulators span the whole
// run; every configuration carries the identical startup transient, so
// differences between configurations are pure batching effects.
BatchScore RunConfig(int max_batch) {
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
    options.batch.max_batch = max_batch;
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

  BatchScore score;
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

void ReportConfig(int max_batch, const BatchScore& score) {
  const std::string tag = "batch=" + std::to_string(max_batch);
  BenchRow(tag + " sim rate", score.sim_rate, "sim-s/s");
  BenchRow(tag + " events/sec", score.events_per_sec, "ev/s");
  BenchRow(tag + " e2e latency max", score.latency_max_us, "us");
  BenchRow(tag + " e2e latency mean", score.latency_mean_us, "us");
  BenchRow(tag + " delivered", static_cast<double>(score.delivered), "seg");
}

}  // namespace
}  // namespace pandora

int main(int argc, char** argv) {
  using namespace pandora;
  BenchParseArgs(argc, argv);
  BenchHeader("E20", "batched pipeline sweep (sim rate, e2e latency by batch budget)",
              "section 2's 10-20 ms end-to-end audio budget must survive the "
              "batched drains; section 3.1's cheap dispatch is what they amortize");

  const BatchScore legacy = RunConfig(1);
  ReportConfig(1, legacy);
  BatchScore batch16;
  for (int max_batch : {4, 16, 64}) {
    const BatchScore score = RunConfig(max_batch);
    ReportConfig(max_batch, score);
    if (max_batch == 16) {
      batch16 = score;
    }
  }

  BenchRow("batch=16 sim-rate speedup vs legacy",
           legacy.sim_rate > 0 ? batch16.sim_rate / legacy.sim_rate : 0.0, "x");
  BenchNote("one cold 4-box ring per batch size; latency spans warmup too, "
            "identically for every configuration");
  return BenchFinish();
}
