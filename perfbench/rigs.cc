#include "rigs.h"

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/audio/mix_kernels.h"
#include "src/buffer/clawback.h"
#include "src/buffer/decoupling.h"
#include "src/buffer/pool.h"
#include "src/net/atm.h"
#include "src/runtime/random.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/shard_set.h"
#include "src/segment/segment.h"
#include "src/segment/wire.h"
#include "src/server/switch.h"
#include "src/video/dpcm.h"

namespace perfbench {
namespace {

using pandora::Millis;
using pandora::Process;
using pandora::Scheduler;
using pandora::Segment;

constexpr int kReps = 5;
constexpr uint64_t kRigSeed = 0x5eed;
constexpr pandora::StreamId kRigStream = 7;

// Folds results the timed loops produce, so the compiler cannot drop them.
volatile uint64_t g_sink = 0;

double NsPerOp(WallClock::time_point start, int64_t ops) {
  return std::chrono::duration<double, std::nano>(WallClock::now() - start).count() /
         static_cast<double>(ops);
}

// One discarded warm repetition, then the median of kReps timed ones.
template <typename Rep>
double MedianOfReps(Rep&& rep) {
  rep();
  std::vector<double> ns;
  for (int i = 0; i < kReps; ++i) {
    ns.push_back(rep());
  }
  return Median(ns);
}

std::vector<uint8_t> SeededBytes(size_t n, uint64_t seed) {
  pandora::Rng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) {
    b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  return bytes;
}

Segment AudioSegment(int payload_bytes) {
  return pandora::MakeAudioSegment(kRigStream, 1, Millis(2),
                                   SeededBytes(static_cast<size_t>(payload_bytes), kRigSeed));
}

Segment VideoSegment(const RigInputs& in) {
  pandora::VideoHeader vh;
  vh.segments_in_frame = 4;
  vh.compression_type = pandora::VideoCoding::kDpcm;
  vh.x_width = static_cast<uint32_t>(in.video_width);
  vh.line_count = static_cast<uint32_t>(in.video_lines_per_segment);
  return pandora::MakeVideoSegment(
      kRigStream, 1, Millis(40), vh,
      SeededBytes(static_cast<size_t>(in.video_payload_bytes), kRigSeed + 1));
}

// --- segment: the wire image, once out and once in ---------------------------

double EncodeNs(const Segment& segment) {
  constexpr int kOps = 20'000;
  std::vector<uint8_t> out;
  return MedianOfReps([&] {
    const auto start = WallClock::now();
    for (int i = 0; i < kOps; ++i) {
      pandora::EncodeSegmentInto(segment, pandora::StreamField::kOmitted, &out);
      g_sink = g_sink + out.size();
    }
    return NsPerOp(start, kOps);
  });
}

double DecodeNs(const Segment& segment, std::string* error) {
  constexpr int kOps = 20'000;
  std::vector<uint8_t> wire;
  pandora::EncodeSegmentInto(segment, pandora::StreamField::kOmitted, &wire);
  return MedianOfReps([&] {
    const auto start = WallClock::now();
    for (int i = 0; i < kOps; ++i) {
      pandora::DecodeResult r =
          pandora::DecodeSegment(wire, pandora::StreamField::kOmitted, kRigStream);
      if (!r.ok || r.segment.payload != segment.payload) {
        *error = "segment rig: decode did not return the encoded segment";
      }
      g_sink = g_sink + r.segment.payload.size();
    }
    return NsPerOp(start, kOps);
  });
}

// --- server: a Switch fanning one stream out to decoupling sinks -------------

Process FeedSwitch(Scheduler* sched, pandora::BufferPool* pool, pandora::Switch* sw,
                   const Segment* prototype, int segments) {
  for (int i = 0; i < segments; ++i) {
    pandora::SegmentRef ref = co_await pool->Allocate();
    *ref = *prototype;
    co_await sw->input().Send(std::move(ref));
    co_await sched->WaitFor(pandora::Micros(100));
  }
}

Process DrainSink(pandora::DecouplingBuffer* sink) {
  for (;;) {
    pandora::SegmentRef ref = co_await sink->output().Receive();
    g_sink = g_sink + static_cast<uint64_t>(ref->header.sequence);
  }
}

double SwitchNsPerSegment(const Segment& prototype, int fanout, std::string* error) {
  constexpr int kSegments = 4'000;
  return MedianOfReps([&] {
    Scheduler sched;
    pandora::BufferPool pool(&sched, "rig.pool", 128);
    pandora::SwitchOptions switch_options;
    switch_options.name = "rig.switch";
    pandora::Switch sw(&sched, switch_options);
    std::vector<std::unique_ptr<pandora::DecouplingBuffer>> sinks;
    for (int f = 0; f < fanout; ++f) {
      sinks.push_back(std::make_unique<pandora::DecouplingBuffer>(
          &sched, pandora::DecouplingBuffer::Options{.name = "rig.sink" + std::to_string(f),
                                                     .capacity = 16,
                                                     .use_ready_channel = true}));
    }
    pandora::ShutdownGuard guard(&sched);
    for (int f = 0; f < fanout; ++f) {
      const pandora::DestinationId dest =
          sw.AddDestination("sink" + std::to_string(f), sinks[static_cast<size_t>(f)].get());
      sw.OpenRoute(kRigStream, dest, /*incoming=*/true, /*audio=*/true);
    }
    sw.Start();
    for (auto& sink : sinks) {
      sink->Start();
      sched.Spawn(DrainSink(sink.get()), "rig.drain");
    }
    sched.Spawn(FeedSwitch(&sched, &pool, &sw, &prototype, kSegments), "rig.feed");
    const auto start = WallClock::now();
    sched.RunUntilQuiescent();
    const double ns = NsPerOp(start, kSegments);
    if (sw.segments_switched() != static_cast<uint64_t>(kSegments) || sw.segments_dropped() != 0) {
      *error = "switch rig: segments were not all switched";
    }
    return ns;
  });
}

// --- net: one circuit between two ports --------------------------------------

Process SendWires(pandora::AtmPort* port, const std::vector<uint8_t>* image, int segments) {
  for (int i = 0; i < segments; ++i) {
    pandora::WireRef wire = co_await port->wire_pool().Allocate();
    wire->bytes = *image;
    pandora::NetTx tx;
    tx.vci = 1;
    tx.wire = std::move(wire);
    co_await port->tx().Send(std::move(tx));
  }
}

Process ReceiveWires(pandora::AtmPort* port) {
  for (;;) {
    pandora::NetRx rx = co_await port->rx().Receive();
    g_sink = g_sink + rx.wire->bytes.size();
  }
}

double NetForwardNs(int wire_bytes, std::string* error) {
  constexpr int kSegments = 4'000;
  const std::vector<uint8_t> image = SeededBytes(static_cast<size_t>(wire_bytes), kRigSeed + 2);
  return MedianOfReps([&] {
    Scheduler sched;
    pandora::AtmNetwork net(&sched, kRigSeed);
    pandora::AtmPort* a = net.AddPort("rig.a");
    pandora::AtmPort* b = net.AddPort("rig.b");
    pandora::HopQuality circuit;
    circuit.propagation = Millis(1);
    net.OpenCircuit(a, 1, b, {}, circuit);
    pandora::ShutdownGuard guard(&sched);
    sched.Spawn(ReceiveWires(b), "rig.rx");
    sched.Spawn(SendWires(a, &image, kSegments), "rig.tx");
    const auto start = WallClock::now();
    sched.RunUntilQuiescent();
    const double ns = NsPerOp(start, kSegments);
    if (net.total_delivered() != static_cast<uint64_t>(kSegments)) {
      *error = "net rig: the circuit did not deliver every segment";
    }
    return ns;
  });
}

// --- buffer: a clawback bank at steady state ---------------------------------

double ClawbackPushPopNs(int streams, std::string* error) {
  constexpr int kTicks = 50'000;
  pandora::AudioBlock block;
  const std::vector<uint8_t> samples = SeededBytes(block.samples.size(), kRigSeed + 3);
  std::copy(samples.begin(), samples.end(), block.samples.begin());
  return MedianOfReps([&] {
    pandora::ClawbackBank bank{pandora::ClawbackConfig{}};
    const auto start = WallClock::now();
    for (int t = 0; t < kTicks; ++t) {
      block.source_time = static_cast<pandora::Time>(t) * pandora::kAudioBlockDuration;
      for (int s = 1; s <= streams; ++s) {
        if (bank.Push(static_cast<pandora::StreamId>(s), block) !=
            pandora::ClawbackPushResult::kStored) {
          *error = "clawback rig: a block below target was not stored";
        }
      }
      for (int s = 1; s <= streams; ++s) {
        const std::optional<pandora::AudioBlock> out = bank.Pop(static_cast<pandora::StreamId>(s));
        g_sink = g_sink + (out.has_value() ? out->samples[0] : 0);
      }
    }
    return NsPerOp(start, static_cast<int64_t>(kTicks) * streams);
  });
}

// --- audio: the mixer's separable kernels over one 2 ms tick ------------------

double MixNsPerTick(int streams) {
  constexpr int kTicks = 200'000;
  constexpr int kN = pandora::kAudioBlockSamples;
  std::vector<std::array<uint8_t, kN>> blocks(static_cast<size_t>(streams));
  for (int s = 0; s < streams; ++s) {
    const std::vector<uint8_t> bytes = SeededBytes(kN, kRigSeed + 4 + static_cast<uint64_t>(s));
    std::copy(bytes.begin(), bytes.end(), blocks[static_cast<size_t>(s)].begin());
  }
  return MedianOfReps([&] {
    const auto start = WallClock::now();
    for (int t = 0; t < kTicks; ++t) {
      alignas(16) int32_t accumulator[kN] = {};
      alignas(16) int16_t linear[kN];
      alignas(16) int16_t clamped[kN];
      alignas(16) uint8_t mixed[kN];
      for (auto& block : blocks) {
        pandora::ULawDecodeBlock<kN>(block.data(), linear);
        pandora::AccumulateBlock<kN>(linear, accumulator);
      }
      pandora::ClampBlock<kN>(accumulator, clamped);
      pandora::ULawEncodeBlock<kN>(clamped, mixed);
      blocks[static_cast<size_t>(t % streams)][t % kN] = mixed[t % kN];
      g_sink = g_sink + mixed[0];
    }
    return NsPerOp(start, kTicks);
  });
}

// --- video: DPCM line coding, as the capture and display boards run it --------

struct LineTimes {
  double compress_ns = 0.0;
  double decompress_ns = 0.0;
};

LineTimes VideoLineNs(int width, std::string* error) {
  constexpr int kDistinctLines = 64;
  constexpr int kOps = 20'000;
  // A horizontal ramp with seeded noise: smooth enough that DPCM residuals
  // stay small, as on the camera's moving-bar frames.
  pandora::Rng rng(kRigSeed + 5);
  std::vector<std::vector<uint8_t>> lines(kDistinctLines, std::vector<uint8_t>(width));
  for (auto& line : lines) {
    for (int x = 0; x < width; ++x) {
      line[static_cast<size_t>(x)] =
          static_cast<uint8_t>((x * 255) / width + rng.UniformInt(0, 7));
    }
  }
  std::vector<std::vector<uint8_t>> coded;
  LineTimes times;
  times.compress_ns = MedianOfReps([&] {
    coded.clear();
    const auto start = WallClock::now();
    for (int i = 0; i < kOps; ++i) {
      std::vector<uint8_t> bytes = pandora::CompressLine(
          pandora::LineCoding::kDpcmLine, lines[static_cast<size_t>(i % kDistinctLines)].data(),
          width);
      if (i < kDistinctLines) {
        coded.push_back(std::move(bytes));
      } else {
        g_sink = g_sink + bytes.size();
      }
    }
    return NsPerOp(start, kOps);
  });
  times.decompress_ns = MedianOfReps([&] {
    const auto start = WallClock::now();
    for (int i = 0; i < kOps; ++i) {
      pandora::DecompressedLine line =
          pandora::DecompressLine(coded[static_cast<size_t>(i % kDistinctLines)], width);
      if (!line.ok || static_cast<int>(line.pixels.size()) != width) {
        *error = "video rig: a DPCM line did not decompress";
      }
      g_sink = g_sink + line.pixels[0];
    }
    return NsPerOp(start, kOps);
  });
  return times;
}

// --- shard: a bare ShardSet, one timer per shard per ms -----------------------

struct Ticker {
  Scheduler* sched = nullptr;
  uint64_t fired = 0;

  void Arm(pandora::Time when) {
    Ticker* self = this;
    sched->AddTimer(when, pandora::TimerCallback([self] {
                      ++self->fired;
                      self->Arm(self->sched->now() + Millis(1));
                    }));
  }
};

double BareWindowNs(std::string* error) {
  constexpr int kShards = 8;
  constexpr int kThreads = 4;
  constexpr int kWarmWindows = 100;
  constexpr int kWindows = 2'000;
  return MedianOfReps([&] {
    std::vector<Ticker> tickers(kShards);
    pandora::ShardSet set(pandora::ShardSetOptions{
        .shards = kShards, .threads = kThreads, .lookahead = Millis(1)});
    for (int s = 0; s < kShards; ++s) {
      tickers[static_cast<size_t>(s)].sched = &set.shard(s);
      tickers[static_cast<size_t>(s)].Arm(Millis(1));
    }
    set.RunUntil(Millis(kWarmWindows));
    const uint64_t windows_before = set.windows();
    const auto start = WallClock::now();
    set.RunUntil(Millis(kWarmWindows + kWindows));
    const uint64_t windows = set.windows() - windows_before;
    const double ns = windows > 0 ? NsPerOp(start, static_cast<int64_t>(windows)) : 0.0;
    if (windows == 0 || tickers[0].fired < static_cast<uint64_t>(kWindows)) {
      *error = "shard rig: the timers did not fire once per window";
    }
    set.Shutdown();
    return ns;
  });
}

}  // namespace

std::string RunRigs(const RigInputs& in, SpanLog* spans, MetricList* out) {
  std::string error;
  double encode_audio = 0, decode_audio = 0, encode_video = 0, decode_video = 0;
  double switch_ns = 0, forward_ns = 0, clawback_ns = 0, mix_ns = 0, window_ns = 0;
  LineTimes lines;
  if (in.boxes) {
    const Segment audio = AudioSegment(in.audio_payload_bytes);
    {
      ScopedSpan span(spans, "rig.segment.audio");
      encode_audio = EncodeNs(audio);
      decode_audio = DecodeNs(audio, &error);
    }
    if (in.video) {
      ScopedSpan span(spans, "rig.segment.video");
      const Segment video = VideoSegment(in);
      encode_video = EncodeNs(video);
      decode_video = DecodeNs(video, &error);
    }
    {
      ScopedSpan span(spans, "rig.server.switch");
      switch_ns = SwitchNsPerSegment(audio, in.fanout, &error);
    }
    {
      ScopedSpan span(spans, "rig.net.forward");
      forward_ns = NetForwardNs(in.wire_bytes, &error);
    }
    {
      ScopedSpan span(spans, "rig.buffer.clawback");
      clawback_ns = ClawbackPushPopNs(in.streams_per_mixer, &error);
    }
    {
      ScopedSpan span(spans, "rig.audio.mix");
      mix_ns = MixNsPerTick(in.streams_per_mixer);
    }
    if (in.video) {
      ScopedSpan span(spans, "rig.video.dpcm");
      lines = VideoLineNs(in.video_width, &error);
    }
  }
  if (in.sharded) {
    ScopedSpan span(spans, "rig.shard.bare_window");
    window_ns = BareWindowNs(&error);
  }
  out->Set("segment.encode_ns.audio", encode_audio, "ns");
  out->Set("segment.decode_ns.audio", decode_audio, "ns");
  out->Set("segment.encode_ns.video", encode_video, "ns");
  out->Set("segment.decode_ns.video", decode_video, "ns");
  out->Set("server.switch.ns_per_segment", switch_ns, "ns");
  out->Set("net.forward_ns", forward_ns, "ns");
  out->Set("buffer.clawback.push_pop_ns", clawback_ns, "ns");
  out->Set("audio.mix_ns_per_tick", mix_ns, "ns");
  out->Set("video.compress_ns_per_line", lines.compress_ns, "ns");
  out->Set("video.decompress_ns_per_line", lines.decompress_ns, "ns");
  out->Set("shard.bare_window_ns", window_ns, "ns");
  return error;
}

}  // namespace perfbench
