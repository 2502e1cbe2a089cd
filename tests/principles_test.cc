// Property-style sweeps over the degradation ordering and clawback
// parameters (TEST_P), checks of the principles index, and end-to-end P2
// checks of audio priority at a shared network interface.
#include <tuple>

#include <gtest/gtest.h>

#include "src/buffer/clawback.h"
#include "src/core/principles.h"
#include "src/core/simulation.h"
#include "src/server/degrade.h"

namespace pandora {
namespace {

// --- DegradesBefore is a strict weak ordering over stream attributes --------

StreamAttrs MakeAttrs(int bits, uint64_t order) {
  StreamAttrs attrs;
  attrs.stream = static_cast<StreamId>(order + 1);
  attrs.incoming = (bits & 1) != 0;
  attrs.audio = (bits & 2) != 0;
  attrs.open_order = order;
  return attrs;
}

class DegradeOrderProperty : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(DegradeOrderProperty, Antisymmetric) {
  auto [bits_a, bits_b, recording] = GetParam();
  StreamAttrs a = MakeAttrs(bits_a, 1);
  StreamAttrs b = MakeAttrs(bits_b, 2);
  // Never both directions.
  EXPECT_FALSE(DegradesBefore(a, b, recording) && DegradesBefore(b, a, recording));
  // Distinct streams always have an order (totality via open_order).
  EXPECT_TRUE(DegradesBefore(a, b, recording) || DegradesBefore(b, a, recording));
}

TEST_P(DegradeOrderProperty, RecordingOnlyFlipsDirectionTerm) {
  auto [bits_a, bits_b, recording] = GetParam();
  StreamAttrs a = MakeAttrs(bits_a, 1);
  StreamAttrs b = MakeAttrs(bits_b, 2);
  if (a.incoming == b.incoming) {
    // Within one direction class the recording flag must not matter.
    EXPECT_EQ(DegradesBefore(a, b, false), DegradesBefore(a, b, true));
  }
  (void)recording;
}

INSTANTIATE_TEST_SUITE_P(AllAttributePairs, DegradeOrderProperty,
                         ::testing::Combine(::testing::Range(0, 4), ::testing::Range(0, 4),
                                            ::testing::Bool()));

// Transitivity over a mixed population.
TEST(DegradeOrderTest, TransitiveOverMixedPopulation) {
  std::vector<StreamAttrs> population;
  for (int bits = 0; bits < 4; ++bits) {
    for (uint64_t order = 1; order <= 3; ++order) {
      population.push_back(MakeAttrs(bits, order * 10 + static_cast<uint64_t>(bits)));
    }
  }
  for (const auto& a : population) {
    for (const auto& b : population) {
      for (const auto& c : population) {
        if (DegradesBefore(a, b) && DegradesBefore(b, c)) {
          EXPECT_TRUE(DegradesBefore(a, c));
        }
      }
    }
  }
}

// --- Clawback rate scales linearly with the count threshold -----------------

class ClawbackRateProperty : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ClawbackRateProperty, DropIntervalEqualsThreshold) {
  const uint32_t threshold = GetParam();
  ClawbackConfig config;
  config.count_threshold = threshold;
  ClawbackPool pool(Seconds(4));
  ClawbackBuffer buffer(1, config, &pool);
  AudioBlock block;
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(buffer.Push(block), ClawbackPushResult::kStored);
  }
  std::vector<int> drops;
  for (int i = 1; drops.size() < 3 && i <= static_cast<int>(threshold) * 4 + 100; ++i) {
    if (buffer.Push(block) == ClawbackPushResult::kDroppedClawback) {
      drops.push_back(i);
    } else {
      ASSERT_TRUE(buffer.Pop().has_value());
    }
  }
  ASSERT_GE(drops.size(), 2u);
  EXPECT_EQ(static_cast<uint32_t>(drops[1] - drops[0]), threshold);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ClawbackRateProperty,
                         ::testing::Values(64u, 512u, 4096u, 8192u));

// --- Multi-rate level acts as a time constant -------------------------------

class MultiRateLevelProperty : public ::testing::TestWithParam<double> {};

TEST_P(MultiRateLevelProperty, SteadyIntervalMatchesLevelOverFloor) {
  const double level = GetParam();
  ClawbackConfig config;
  config.mode = ClawbackMode::kMultiRate;
  config.block_seconds_level = level;
  config.per_stream_limit_blocks = 100;
  ClawbackPool pool(Seconds(8));
  ClawbackBuffer buffer(1, config, &pool);
  AudioBlock block;
  const int depth = 10;  // floor of 20ms = 0.02 block-seconds per block
  for (int i = 0; i < depth; ++i) {
    ASSERT_EQ(buffer.Push(block), ClawbackPushResult::kStored);
  }
  std::vector<int> drops;
  for (int i = 1; drops.size() < 3 && i <= 400000; ++i) {
    if (buffer.Push(block) == ClawbackPushResult::kDroppedClawback) {
      drops.push_back(i);
    } else {
      ASSERT_TRUE(buffer.Pop().has_value());
    }
  }
  ASSERT_EQ(drops.size(), 3u);
  const int expected = static_cast<int>(level / (depth * 0.002));
  EXPECT_EQ(drops[2] - drops[1], expected);
}

INSTANTIATE_TEST_SUITE_P(Levels, MultiRateLevelProperty, ::testing::Values(5.0, 20.0, 40.0));

// --- P2 end to end: audio keeps the interface when video shares it ----------

// E9's world: audio plus raw 25 fps 320x240 video (about 15 Mbit/s) offered
// to a 2 Mbit/s uplink.  The splitter must shed video, never audio, and
// every audio segment must reach the far box.
TEST(AudioPriority, SqueezedUplinkShedsOnlyVideo) {
  Simulation sim;
  PandoraBox::Options options;
  options.video_width = 320;
  options.video_height = 240;
  options.name = "tx";
  options.network_egress_bps = 2'000'000;
  PandoraBox& tx = sim.AddBox(options);
  options.name = "rx";
  options.network_egress_bps = 20'000'000;
  PandoraBox& rx = sim.AddBox(options);
  sim.Start();
  StreamId audio = sim.SendAudio(tx, rx);
  sim.SendVideo(tx, rx, Rect{0, 0, 320, 240}, 1, 1, 4);
  sim.RunFor(Seconds(10));

  EXPECT_EQ(tx.network_output().audio_drops(), 0u);
  EXPECT_GT(tx.network_output().video_drops(), 0u);
  const SequenceTracker* tracker = rx.audio_receiver().TrackerFor(audio);
  ASSERT_NE(tracker, nullptr);
  EXPECT_GT(tracker->received(), 0u);
  EXPECT_EQ(tracker->LossFraction(), 0.0);
}

// E7's world with video cut into 8 strips per frame (about 9.7 KB, 3.9 ms of
// wire time each): the interface picks audio again after every strip, so a
// live audio stream's inter-arrival spacing stretches by at most about one
// strip, well inside the paper's 10-20 ms budget (P7).
TEST(AudioPriority, SmallVideoStripsBoundAudioJitter) {
  Simulation sim;
  PandoraBox::Options options;
  options.video_width = 320;
  options.video_height = 240;
  options.name = "tx";
  PandoraBox& tx = sim.AddBox(options);
  options.name = "rx";
  PandoraBox& rx = sim.AddBox(options);
  sim.Start();
  StreamId audio = sim.SendAudio(tx, rx);
  StreamId at_rx = sim.AllocateStream();
  rx.server_switch().OpenRoute(at_rx, rx.dest_display(), true, false);
  sim.network().OpenCircuit(tx.port(), at_rx, rx.port());
  StreamId local = sim.AllocateStream();
  tx.server_switch().OpenRoute(local, tx.dest_network(), false, false, at_rx);
  tx.AddCameraStream(local, Rect{0, 0, 320, 240}, 1, 1, 8, LineCoding::kRawLine);
  sim.RunFor(Seconds(10));

  const CircuitStats* stats = sim.network().StatsFor(tx.port(), audio);
  ASSERT_NE(stats, nullptr);
  ASSERT_GT(stats->inter_arrival.count(), 0u);
  // Jitter: the widest audio spacing beyond the nominal 4 ms segment period.
  const double jitter_ms = (stats->inter_arrival.max() - 4000.0) / 1000.0;
  EXPECT_LE(jitter_ms, 5.0);
}

TEST(PrinciplesTest, IndexIsComplete) {
  // The enum is documentation, but keep its values pinned to the paper's
  // numbering.
  EXPECT_EQ(static_cast<int>(Principle::kOutgoingPriority), 1);
  EXPECT_EQ(static_cast<int>(Principle::kAudioPriority), 2);
  EXPECT_EQ(static_cast<int>(Principle::kNewStreamPriority), 3);
  EXPECT_EQ(static_cast<int>(Principle::kCommandPriority), 4);
  EXPECT_EQ(static_cast<int>(Principle::kUpstreamIndependence), 5);
  EXPECT_EQ(static_cast<int>(Principle::kReconfigurationContinuity), 6);
  EXPECT_EQ(static_cast<int>(Principle::kMinimiseDelay), 7);
  EXPECT_EQ(static_cast<int>(Principle::kLocalAdaptation), 8);
}

}  // namespace
}  // namespace pandora
