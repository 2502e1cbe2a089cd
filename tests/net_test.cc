// Tests for the ATM network simulation: circuits, VCI relabelling, FIFO
// delivery under jitter, loss, multi-hop paths and the non-interleaving
// interface (paper sections 1.1, 4.2).
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "src/buffer/pool.h"
#include "src/net/atm.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/shard_set.h"
#include "src/segment/segment.h"
#include "src/segment/wire.h"

namespace pandora {
namespace {

SegmentRef MakeAudioRef(BufferPool* pool, StreamId stream, uint32_t seq, size_t bytes = 32) {
  auto ref = pool->TryAllocate();
  EXPECT_TRUE(ref.has_value());
  **ref = MakeAudioSegment(stream, seq, 0, std::vector<uint8_t>(bytes, 7));
  return std::move(*ref);
}

struct NetRig {
  explicit NetRig(uint64_t seed = 1) : pool(&sched, "pool", 256), net(&sched, seed) {
    a = net.AddPort("a");
    b = net.AddPort("b");
  }

  Scheduler sched;
  BufferPool pool;
  AtmNetwork net;
  AtmPort* a;
  AtmPort* b;
  ShutdownGuard guard{&sched};
};

// Encodes `ref` into `port`'s wire pool and hands the wire image to the
// interface — the source-side half of the wire path, done by hand so this
// file stays at the net layer (the server-layer helper is SendEncodedSegment).
Task<void> SendOneEncoded(AtmPort* port, SegmentRef ref, Vci vci) {
  WireRef wire = co_await port->wire_pool().Allocate();
  EncodeSegmentInto(*ref, StreamField::kOmitted, &wire->bytes);
  ref.Reset();
  // Built in a named local: GCC 12 mishandles move-only aggregate
  // temporaries inside co_await argument expressions (see channel.h).
  NetTx tx;
  tx.vci = vci;
  tx.wire = std::move(wire);
  co_await port->tx().Send(std::move(tx));
}

Process SendSegments(Scheduler* sched, BufferPool* pool, AtmPort* port, Vci vci, int count,
                     Duration spacing, size_t bytes = 32) {
  for (int i = 0; i < count; ++i) {
    co_await SendOneEncoded(port, MakeAudioRef(pool, 99, static_cast<uint32_t>(i), bytes), vci);
    co_await sched->WaitFor(spacing);
  }
}

Process CollectSegments(AtmPort* port, std::vector<Segment>* out) {
  for (;;) {
    NetRx in = co_await port->rx().Receive();
    DecodeResult decoded = DecodeSegment(in.wire->bytes, StreamField::kOmitted, in.vci);
    EXPECT_TRUE(decoded.ok) << decoded.error;
    out->push_back(std::move(decoded.segment));
  }
}

TEST(AtmTest, DeliversWithVciRelabelling) {
  NetRig rig;
  rig.net.OpenCircuit(rig.a, /*vci=*/42, rig.b);
  std::vector<Segment> got;
  rig.sched.Spawn(SendSegments(&rig.sched, &rig.pool, rig.a, 42, 5, Millis(4)), "tx");
  rig.sched.Spawn(CollectSegments(rig.b, &got), "rx");
  rig.sched.RunFor(Millis(100));
  ASSERT_EQ(got.size(), 5u);
  for (uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(got[i].stream, 42u);  // the VCI is the destination stream id
    EXPECT_EQ(got[i].header.sequence, i);
  }
  EXPECT_EQ(rig.pool.free_count(), 256u);     // source buffers recycled at encode
  EXPECT_EQ(rig.a->wire_pool().free_count(), 256u);  // wire buffers recycled at decode
}

TEST(AtmTest, UnroutedVciIsDiscarded) {
  NetRig rig;
  std::vector<Segment> got;
  rig.sched.Spawn(SendSegments(&rig.sched, &rig.pool, rig.a, 7, 3, Millis(1)), "tx");
  rig.sched.Spawn(CollectSegments(rig.b, &got), "rx");
  rig.sched.RunFor(Millis(50));
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(rig.a->unrouted(), 3u);
}

TEST(AtmTest, JitterNeverReordersACircuit) {
  NetRig rig(1234);
  HopQuality direct;
  direct.jitter_max = Millis(20);  // huge vs the 2ms spacing
  rig.net.OpenCircuit(rig.a, 42, rig.b, {}, direct);
  std::vector<Segment> got;
  rig.sched.Spawn(SendSegments(&rig.sched, &rig.pool, rig.a, 42, 100, Millis(2)), "tx");
  rig.sched.Spawn(CollectSegments(rig.b, &got), "rx");
  rig.sched.RunFor(Seconds(2));
  ASSERT_EQ(got.size(), 100u);
  for (uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(got[i].header.sequence, i);
  }
  const CircuitStats* stats = rig.net.StatsFor(rig.a, 42);
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->latency.max() - stats->latency.min(), 5000.0);  // jitter happened
}

TEST(AtmTest, LossRateApproximatelyHonoured) {
  NetRig rig(7);
  HopQuality direct;
  direct.loss_rate = 0.2;
  rig.net.OpenCircuit(rig.a, 42, rig.b, {}, direct);
  std::vector<Segment> got;
  rig.sched.Spawn(SendSegments(&rig.sched, &rig.pool, rig.a, 42, 1000, Millis(1)), "tx");
  rig.sched.Spawn(CollectSegments(rig.b, &got), "rx");
  rig.sched.RunFor(Seconds(2));
  const CircuitStats* stats = rig.net.StatsFor(rig.a, 42);
  EXPECT_NEAR(static_cast<double>(stats->lost) / 1000.0, 0.2, 0.05);
  EXPECT_EQ(stats->delivered + stats->lost, 1000u);
}

TEST(AtmTest, ReopenedCircuitDoesNotReceiveOldIncarnationTraffic) {
  NetRig rig;
  HopQuality direct;
  direct.propagation = Millis(10);
  rig.net.OpenCircuit(rig.a, 42, rig.b, {}, direct);
  std::vector<Segment> got;
  rig.sched.Spawn(SendSegments(&rig.sched, &rig.pool, rig.a, 42, 1, Millis(1)), "tx");
  rig.sched.Spawn(CollectSegments(rig.b, &got), "rx");

  // Close and re-open under the same (port, VCI) key while the segment is
  // in flight — exactly what a box crash + restart does to a call's
  // circuit.  The old-incarnation segment must not be delivered into the
  // new call or touch its zeroed FIFO clamps (ABA on the key).
  rig.sched.RunFor(Millis(5));
  rig.net.CloseCircuit(rig.a, 42);
  rig.net.OpenCircuit(rig.a, 42, rig.b, {}, direct);
  rig.sched.RunFor(Millis(50));

  EXPECT_TRUE(got.empty());
  EXPECT_EQ(rig.net.total_lost(), 1u);
  const CircuitStats* stats = rig.net.StatsFor(rig.a, 42);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->offered, 0u);  // the new incarnation's stats stay fresh
  EXPECT_EQ(stats->delivered, 0u);
}

TEST(AtmTest, MultiHopPathAccumulatesLatency) {
  NetRig rig;
  HopQuality hop_quality;
  hop_quality.propagation = Millis(1);
  NetHop* h1 = rig.net.AddHop("bridge1", hop_quality);
  NetHop* h2 = rig.net.AddHop("bridge2", hop_quality);
  NetHop* h3 = rig.net.AddHop("bridge3", hop_quality);
  rig.net.OpenCircuit(rig.a, 42, rig.b, {h1, h2, h3});
  std::vector<Segment> got;
  rig.sched.Spawn(SendSegments(&rig.sched, &rig.pool, rig.a, 42, 10, Millis(4)), "tx");
  rig.sched.Spawn(CollectSegments(rig.b, &got), "rx");
  rig.sched.RunFor(Millis(200));
  ASSERT_EQ(got.size(), 10u);
  const CircuitStats* stats = rig.net.StatsFor(rig.a, 42);
  EXPECT_GT(stats->latency.Mean(), 3000.0);  // 3 x 1ms propagation + transmission
}

TEST(AtmTest, SharedHopContentionDelaysOtherCircuit) {
  // Two circuits share one slow bridge: heavy traffic on circuit 1 delays
  // circuit 2 (store-and-forward queueing).
  Scheduler sched;
  BufferPool pool(&sched, "pool", 512);
  AtmNetwork net(&sched);
  AtmPort* a = net.AddPort("a", 100'000'000);
  AtmPort* b = net.AddPort("b", 100'000'000);
  AtmPort* c = net.AddPort("c", 100'000'000);
  HopQuality slow;
  slow.bits_per_second = 2'000'000;  // 2 Mbit/s bottleneck
  NetHop* bridge = net.AddHop("bridge", slow);
  net.OpenCircuit(a, 42, b, {bridge});
  net.OpenCircuit(c, 43, b, {bridge});
  ShutdownGuard guard(&sched);

  std::vector<Segment> got;
  // 8KB bursts every 10ms from a (32ms serialization each at 2Mbit/s).
  sched.Spawn(SendSegments(&sched, &pool, a, 42, 20, Millis(10), 8000), "bulk");
  sched.Spawn(SendSegments(&sched, &pool, c, 43, 20, Millis(10), 32), "small");
  sched.Spawn(CollectSegments(b, &got), "rx");
  sched.RunFor(Seconds(2));
  const CircuitStats* small = net.StatsFor(c, 43);
  ASSERT_NE(small, nullptr);
  // The small circuit's latency is dominated by waiting behind bulk
  // transfers on the shared hop.
  EXPECT_GT(small->latency.max(), 20000.0);
}

TEST(AtmTest, NonInterleavedInterfaceDelaysAudioBehindVideo) {
  // E7 at port level: a 50KB video segment occupies the 20Mbit/s interface
  // for 20ms; audio queued behind it inherits that as jitter.
  NetRig rig;
  rig.net.OpenCircuit(rig.a, 42, rig.b);
  rig.net.OpenCircuit(rig.a, 43, rig.b);
  std::vector<Segment> got;
  rig.sched.Spawn(CollectSegments(rig.b, &got), "rx");

  auto mixed_tx = [](Scheduler* s, BufferPool* pool, AtmPort* a) -> Process {
    // Send the video first, then immediately the audio.
    co_await SendOneEncoded(a, MakeAudioRef(pool, 1, 0, 50'000), 43);
    co_await SendOneEncoded(a, MakeAudioRef(pool, 2, 0, 32), 42);
    (void)s;
  };
  rig.sched.Spawn(mixed_tx(&rig.sched, &rig.pool, rig.a), "tx");
  rig.sched.RunFor(Millis(100));
  const CircuitStats* audio_stats = rig.net.StatsFor(rig.a, 42);
  ASSERT_EQ(audio_stats->delivered, 1u);
  // Note: circuit latency starts after interface serialization; measure via
  // delivery time instead.
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1].stream, 42u);
  // The audio could not start serializing until the ~20ms video finished.
  EXPECT_GT(rig.a->egress().busy_time(), Millis(20));
}

// --- Fabric golden ------------------------------------------------------------
// Pins the fabric's draw order and accounting.  Each stage draws loss, then
// corruption (only when corrupt_rate > 0), then passes the hop gate, then
// draws jitter.  Segments lost or delivered are counted on the source shard.
// One direct and one three-hop bridged circuit, both impaired (loss,
// corruption, jitter, and on the bridge a slow hop whose queue bound sheds),
// are driven the same way in three layouts: on a bare Scheduler, and with the
// destination port on the source's shard or on the other shard of a
// two-shard set.  The destination link is down for 60 ms mid-run.

Process DrainRx(AtmPort* port, uint64_t* received) {
  for (;;) {
    NetRx in = co_await port->rx().Receive();
    ++*received;
  }
}

// offered, delivered, lost, corrupted, latency sum and max, inter-arrival sum
// for each circuit (direct first), then the network's bytes on the wire, its
// total loss and corruption, the destination's rx discards and receive count.
std::vector<uint64_t> FabricFingerprint(int shards, int dst_shard) {
  ShardSetOptions options;
  options.shards = shards;
  options.lookahead = Millis(1);
  ShardSet set(options);
  Scheduler& src_sched = set.shard(0);
  BufferPool pool(&src_sched, "pool", 512);
  std::optional<AtmNetwork> net;
  if (shards == 1) {
    net.emplace(&src_sched, /*seed=*/0xFAB);
  } else {
    net.emplace(&set, /*seed=*/0xFAB);
  }
  AtmPort* a = net->AddPort("a", 20'000'000, 256, nullptr, 0);
  AtmPort* b = net->AddPort("b", 20'000'000, 256, nullptr, dst_shard);

  HopQuality direct;
  direct.propagation = Millis(1);  // the cross-shard lookahead floor
  direct.jitter_max = Millis(2);
  direct.loss_rate = 0.05;
  direct.corrupt_rate = 0.03;
  net->OpenCircuit(a, 1, b, {}, direct);

  HopQuality first;
  first.propagation = Micros(200);
  first.jitter_max = Micros(500);
  first.loss_rate = 0.02;
  first.corrupt_rate = 0.01;
  HopQuality slow;  // ~2 ms per segment against 1 ms spacing: sheds at 5 ms
  slow.bits_per_second = 500'000;
  slow.propagation = Micros(300);
  slow.max_queue = Millis(5);
  HopQuality last;
  last.propagation = Millis(1);
  last.jitter_max = Millis(2);
  last.loss_rate = 0.01;
  last.corrupt_rate = 0.02;
  NetHop* h1 = net->AddHop("h1", first);
  NetHop* h2 = net->AddHop("h2", slow);
  NetHop* h3 = net->AddHop("h3", last);
  net->OpenCircuit(a, 2, b, {h1, h2, h3});

  uint64_t received = 0;
  src_sched.Spawn(SendSegments(&src_sched, &pool, a, 1, 500, Millis(1)), "tx.direct");
  src_sched.Spawn(SendSegments(&src_sched, &pool, a, 2, 500, Millis(1), 100), "tx.bridged");
  set.shard(dst_shard).Spawn(DrainRx(b, &received), "rx");
  // The outage is flipped by hand between Run* calls: this fabric-level
  // world has no Simulation for a FaultDriver to act on.
  set.RunFor(Millis(200));
  net->SetPortUp(b, false);  // NOLINT(pandora-fault-hooks): fabric golden, no FaultDriver
  set.RunFor(Millis(60));
  net->SetPortUp(b, true);  // NOLINT(pandora-fault-hooks): fabric golden, no FaultDriver
  set.RunFor(Millis(740));

  std::vector<uint64_t> got;
  for (Vci vci : {Vci{1}, Vci{2}}) {
    const CircuitStats* stats = net->StatsFor(a, vci);
    got.push_back(stats->offered);
    got.push_back(stats->delivered);
    got.push_back(stats->lost);
    got.push_back(stats->corrupted);
    got.push_back(static_cast<uint64_t>(stats->latency.sum()));
    got.push_back(static_cast<uint64_t>(stats->latency.max()));
    got.push_back(static_cast<uint64_t>(stats->inter_arrival.sum()));
  }
  got.push_back(net->bytes_on_wire());
  got.push_back(net->total_lost());
  got.push_back(net->total_corrupted());
  got.push_back(b->rx_discarded());
  got.push_back(received);
  set.Shutdown();
  return got;
}

TEST(FabricGolden, DirectAndBridgedCircuitsMatchPinned) {
  // A one-shard fabric and a same-shard exit on a two-shard set agree bit
  // for bit.
  const std::vector<uint64_t> kSameShard = {
      500, 415, 85, 20, 862612, 2999, 499621,    // direct
      500, 204, 296, 6, 1910437, 10686, 503485,  // bridged
      231472, 381, 26, 88, 619};
  EXPECT_EQ(FabricFingerprint(1, 0), kSameShard);
  EXPECT_EQ(FabricFingerprint(2, 0), kSameShard);
  // A cross-shard exit checks the destination link when it posts, not after
  // the final propagation, so the outage window shifts by that stage; the
  // exit loss does not touch the destination shard's rx_discarded.
  const std::vector<uint64_t> kCrossShard = {
      500, 416, 84, 20, 864707, 2999, 499621,    // direct
      500, 203, 297, 6, 1901178, 10686, 503485,  // bridged
      231472, 384, 26, 3, 616};
  EXPECT_EQ(FabricFingerprint(2, 1), kCrossShard);
}

}  // namespace
}  // namespace pandora
