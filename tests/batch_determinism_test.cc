// Golden determinism tests for the batched ingress/egress pipeline
// (DESIGN.md §15).
//
// The batching argument: every drain primitive harvests only work that is
// ALREADY parked at the same simulated instant, and dispatch round-trips
// cost zero simulated time, so a batched run and the legacy
// one-segment-per-wakeup run see identical queue occupancies at every
// simulated time — every observable (deliveries, losses, gap detection,
// copies, mixer output) must coincide bit for bit.  These tests pin that
// claim end-to-end on a real multi-box world, and pin that batching stays
// thread-count- and partition-invariant when the world spans a ShardSet.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/buffer/clawback.h"
#include "src/core/box.h"
#include "src/core/simulation.h"
#include "src/net/atm.h"
#include "src/runtime/channel.h"
#include "src/runtime/time.h"

namespace pandora {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;

uint64_t FnvMix(uint64_t hash, uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (byte * 8)) & 0xff;
    hash *= 1099511628211ull;
  }
  return hash;
}

// Fast clawback so P8 convergence happens inside a short run (same tuning
// the chaos suite uses).
ClawbackConfig FastClawback() {
  ClawbackConfig config;
  config.count_threshold = 16;
  return config;
}

struct RingWorld {
  Simulation sim;
  std::vector<PandoraBox*> boxes;
  std::vector<StreamId> at_dst;
  std::vector<PandoraBox*> dst;
  explicit RingWorld(const SimulationOptions& options) : sim(options) {}
};

// Four audio boxes in a call ring.  With shards > 1 the boxes are pinned
// round-robin so every call crosses a shard boundary; with shards = 1 the
// same world runs on the legacy single engine.
void BuildRingWorld(RingWorld& world, const BatchOptions& batch) {
  const int shards = world.sim.shard_set().shard_count();
  for (int i = 0; i < 4; ++i) {
    PandoraBox::Options options;
    options.name = "ring" + std::to_string(i);
    options.with_video = false;
    options.clawback = FastClawback();
    options.batch = batch;
    options.shard = i % shards;
    world.boxes.push_back(&world.sim.AddBox(options));
  }
  world.sim.Start();
  CallPath wan;
  wan.direct.propagation = Millis(1);
  for (int i = 0; i < 4; ++i) {
    PandoraBox& src = *world.boxes[static_cast<size_t>(i)];
    PandoraBox& dst = *world.boxes[static_cast<size_t>((i + 1) % 4)];
    world.at_dst.push_back(world.sim.SendAudio(src, dst, wan));
    world.dst.push_back(&dst);
  }
}

// Order-sensitive digest of the run's OBSERVABLES.  Deliberately excludes
// context-switch counts: batching exists to change those.  Everything a
// listener could measure — per-circuit delivery and loss, sequence gaps,
// copies, network totals — goes in.
uint64_t ObservableFingerprint(RingWorld& world) {
  Simulation& sim = world.sim;
  uint64_t hash = kFnvOffset;
  hash = FnvMix(hash, sim.network().total_delivered());
  hash = FnvMix(hash, sim.network().total_lost());
  hash = FnvMix(hash, sim.network().total_corrupted());
  hash = FnvMix(hash, sim.network().bytes_on_wire());
  hash = FnvMix(hash, static_cast<uint64_t>(sim.shard_set().now()));
  for (PandoraBox* box : world.boxes) {
    hash = FnvMix(hash, box->deep_copies());
  }
  for (size_t i = 0; i < world.at_dst.size(); ++i) {
    const SequenceTracker* tracker = world.dst[i]->audio_receiver().TrackerFor(world.at_dst[i]);
    if (tracker == nullptr) {
      hash = FnvMix(hash, 0);
      continue;
    }
    hash = FnvMix(hash, tracker->received());
    hash = FnvMix(hash, tracker->missing_total());
    hash = FnvMix(hash, tracker->suspects());
  }
  return hash;
}

uint64_t RunRing(int shards, int threads, const BatchOptions& batch, uint64_t* delivered) {
  SimulationOptions options;
  options.seed = 29;
  options.shards = shards;
  options.threads = threads;
  RingWorld world(options);
  BuildRingWorld(world, batch);
  world.sim.RunFor(Seconds(3));
  if (delivered != nullptr) {
    *delivered = world.sim.network().total_delivered();
  }
  return ObservableFingerprint(world);
}

TEST(BatchDeterminismTest, BatchedRunMatchesUnbatchedGoldenAtMaxHoldZero) {
  BatchOptions legacy;
  legacy.max_batch = 1;  // the pre-batching engine, path for path
  BatchOptions batched;
  batched.max_batch = 16;

  uint64_t delivered_legacy = 0;
  uint64_t delivered_batched = 0;
  const uint64_t golden = RunRing(1, 1, legacy, &delivered_legacy);
  const uint64_t with_batching = RunRing(1, 1, batched, &delivered_batched);
  EXPECT_GT(delivered_legacy, 1000u);  // the ring actually carried traffic
  EXPECT_EQ(golden, with_batching)
      << "batched drain changed an observable (delivered " << delivered_legacy << " vs "
      << delivered_batched << ")";
}

TEST(BatchDeterminismTest, BatchBoundariesAreThreadCountAndPartitionInvariant) {
  BatchOptions batched;
  batched.max_batch = 16;

  uint64_t delivered = 0;
  const uint64_t sharded_seq = RunRing(4, 1, batched, &delivered);
  const uint64_t sharded_par = RunRing(4, 4, batched, nullptr);
  EXPECT_GT(delivered, 1000u);
  EXPECT_EQ(sharded_seq, sharded_par) << "thread count leaked into batch boundaries";
}

}  // namespace
}  // namespace pandora
