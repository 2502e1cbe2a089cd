// The benchmark's three workloads.  Each episode builds one world from the
// seed, warms it, measures a fixed stretch of simulated time, and returns
// what the simulated system did (deterministic) next to what the simulator
// cost (host time).  README.md says why each workload exists.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "harness.h"

namespace perfbench {

struct EpisodeOptions {
  uint64_t seed = 1;
  // Worker threads of overlay_storm's ShardSet (the Simulation workloads
  // are single-shard, single-thread).
  int threads = 4;
  // Enables the simulated-time TraceRecorder of every shard, so the mixer
  // and join histograms fill and the merged sim-time trace can be written.
  bool sim_trace = false;
  // Written with the merged sim-time trace when non-empty (sim_trace only).
  std::string sim_trace_path;
  // Host spans around the harness calls; null in untraced episodes.
  SpanLog* spans = nullptr;
};

// Inputs the layer rigs take from the workload, so each rig times the layer
// on this workload's own segment sizes and fan-out.
struct RigInputs {
  bool boxes = false;  // the Pandora box pipeline runs (segment/server/net/...)
  bool video = false;
  bool sharded = false;
  int audio_payload_bytes = 0;
  int video_payload_bytes = 0;  // mean over the workload's video segments
  int video_lines_per_segment = 0;
  int video_width = 0;
  int wire_bytes = 0;         // mean wire image per transmitted segment
  int fanout = 0;             // legs per source stream
  int streams_per_mixer = 0;  // audio streams each destination mixes
};

struct Episode {
  // --- Host cost (varies run to run) ---
  double setup_s = 0.0;     // world build, plumbing and warm-up
  double wall_s = 0.0;      // measured window
  double sim_s = 0.0;       // simulated seconds in the measured window
  uint64_t deliveries = 0;  // segments received by a destination in the window
  uint64_t events = 0;      // runtime events in the window
  uint64_t allocs = 0;      // operator new calls in the window
  uint64_t windows = 0;     // ShardSet barrier rounds in the window
  MetricList host_layer;    // per-layer host measurements (core.*_s, overlay.*_s, heap)

  // --- Simulated outcome (bit-identical for one seed) ---
  MetricList sim;    // end-to-end sim metrics
  MetricList layer;  // per-layer counters read at the end of the episode
  MetricList histograms;  // percentiles from the sim-time trace (sim_trace only)
  uint64_t run_hash = 0;  // overlay_storm: ShardedOverlayMulticast::RunHash()
  std::string gate_failure;  // empty when the outcome passes the workload's gate

  RigInputs rig;
};

Episode RunConferenceAudio(const EpisodeOptions& options);
Episode RunVideoOverload(const EpisodeOptions& options);
Episode RunOverlayStorm(const EpisodeOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
