// Golden determinism tests on a real multi-box world: a four-box audio
// call ring.
//
// The ring's observables (deliveries, losses, gap detection, copies,
// network totals) are pinned to one fingerprint, so any change to the box
// pipeline that moves what a listener could measure fails here.  The same
// world spread over a ShardSet must not depend on the partition or on the
// worker-thread count.  The suite and test names are kept from when this
// file compared a batched pipeline against the one-segment-per-wakeup one;
// both produced the pinned fingerprint on this audio-only ring.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/buffer/clawback.h"
#include "src/core/box.h"
#include "src/core/simulation.h"
#include "src/net/atm.h"
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
void BuildRingWorld(RingWorld& world) {
  const int shards = world.sim.shard_set().shard_count();
  for (int i = 0; i < 4; ++i) {
    PandoraBox::Options options;
    options.name = "ring" + std::to_string(i);
    options.with_video = false;
    options.clawback = FastClawback();
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

// Order-sensitive digest of the run's OBSERVABLES: everything a listener
// could measure — per-circuit delivery and loss, sequence gaps, copies,
// network totals.  Context-switch counts stay out; they are engine cost,
// not behaviour.
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

uint64_t RunRing(int shards, int threads, uint64_t* delivered) {
  SimulationOptions options;
  options.seed = 29;
  options.shards = shards;
  options.threads = threads;
  RingWorld world(options);
  BuildRingWorld(world);
  world.sim.RunFor(Seconds(3));
  if (delivered != nullptr) {
    *delivered = world.sim.network().total_delivered();
  }
  return ObservableFingerprint(world);
}

// Re-pin only with a CHANGES.md entry explaining which observable moved
// and why.
constexpr uint64_t kRingFingerprint = 219163603682512403ull;

TEST(BatchDeterminismTest, BatchedRunMatchesUnbatchedGoldenAtMaxHoldZero) {
  uint64_t delivered = 0;
  const uint64_t fingerprint = RunRing(1, 1, &delivered);
  EXPECT_GT(delivered, 1000u);  // the ring actually carried traffic
  EXPECT_EQ(fingerprint, kRingFingerprint) << "ring observables moved (delivered " << delivered
                                           << ")";
}

TEST(BatchDeterminismTest, BatchBoundariesAreThreadCountAndPartitionInvariant) {
  // Four shards put every call across a shard boundary; the observables
  // must not depend on the partition or on how many threads run it.
  EXPECT_EQ(RunRing(4, 1, nullptr), kRingFingerprint) << "partition leaked into observables";
  EXPECT_EQ(RunRing(4, 4, nullptr), kRingFingerprint) << "thread count leaked into observables";
}

}  // namespace
}  // namespace pandora
