// perfbench: runs one workload and prints its metrics.
//
//   perfbench --workload <conference_audio|video_overload|overlay_storm>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// --trace 0 repeats untraced episodes until <s> seconds of measured window
// have run and prints the end-to-end metrics: host time over the episodes
// (see RateOver) and the simulated outcome, which every episode must
// reproduce exactly.
// --trace 1 alternates untraced and traced episodes (sim-time TraceRecorder
// on, host spans recorded), runs the layer rigs, prints the per-layer
// metrics and writes the host span and merged sim-time trace JSON to
// <out-dir>.  Either way the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}, and the exit code is 1
// when a correctness gate failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness.h"
#include "rigs.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct WorkloadSpec {
  const char* name;
  Episode (*run)(const EpisodeOptions&);
  bool sharded;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"conference_audio", RunConferenceAudio, false},
    {"video_overload", RunVideoOverload, false},
    {"overlay_storm", RunOverlayStorm, true},
};

// overlay_storm's worker threads: the benchmark uses at most four.
constexpr int kThreads = 4;
// Every run repeats at least this many measured episodes, so the identity
// gate always compares repeated runs of the seed.
constexpr int kMinEpisodes = 3;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Printed with --trace 0, in this order (BENCHMARK.json's end_to_end).
constexpr MetricSpec kEndToEnd[] = {
    {"sim_rate", "sim-s/s"},
    {"deliveries_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"audio_latency_mean_ms", "ms"},
    {"audio_latency_max_ms", "ms"},
    {"join_latency_p50_ms", "ms"},
    {"join_latency_p99_ms", "ms"},
    {"audio_delivered_ratio", "ratio"},
    {"delivered_ratio", "ratio"},
};

// Printed with --trace 1, in this order (BENCHMARK.json's per_layer).  A
// metric whose layer the workload does not run reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"runtime.events_per_sim_s", "1/s"},
    {"runtime.ns_per_event", "ns"},
    {"runtime.batched_share", "ratio"},
    {"runtime.allocs_per_event", "count"},
    {"shard.windows_per_sim_s", "1/s"},
    {"shard.events_per_window", "count"},
    {"shard.cross_shard_per_delivery", "ratio"},
    {"shard.idle_skips", "count"},
    {"shard.empty_mailbox_barriers", "count"},
    {"shard.wall_per_window_us", "us"},
    {"shard.thread_speedup", "ratio"},
    {"shard.bare_window_ns", "ns"},
    {"segment.encode_ns.audio", "ns"},
    {"segment.decode_ns.audio", "ns"},
    {"segment.encode_ns.video", "ns"},
    {"segment.decode_ns.video", "ns"},
    {"segment.deep_copies_per_delivery", "ratio"},
    {"server.netin.received", "count"},
    {"server.netin.decode_failures", "count"},
    {"server.switch.switched", "count"},
    {"server.switch.dropped", "count"},
    {"server.switch.sheds", "count"},
    {"server.netout.sent", "count"},
    {"server.netout.audio_drops", "count"},
    {"server.netout.video_drops", "count"},
    {"server.netout.audio_queue_max", "count"},
    {"server.switch.ns_per_segment", "ns"},
    {"net.delivered", "count"},
    {"net.lost", "count"},
    {"net.bytes_on_wire_per_sim_s", "B/s"},
    {"net.forward_ns", "ns"},
    {"buffer.pool.min_free", "count"},
    {"buffer.pool.starvation_events", "count"},
    {"buffer.decoupling.max_depth", "count"},
    {"buffer.clawback.max_depth_blocks", "count"},
    {"buffer.clawback.drops", "count"},
    {"buffer.clawback.push_pop_ns", "ns"},
    {"audio.mixer.late_ticks", "count"},
    {"audio.mixer.silences", "count"},
    {"audio.mixer.replays", "count"},
    {"audio.mixer.blocks_mixed", "count"},
    {"audio.latency_p50_ms", "ms"},
    {"audio.latency_p99_ms", "ms"},
    {"audio.mix_ns_per_tick", "ns"},
    {"video.displayed_fps", "fps"},
    {"video.compress_ns_per_line", "ns"},
    {"video.decompress_ns_per_line", "ns"},
    {"overlay.repairs", "count"},
    {"overlay.churn_skipped", "count"},
    {"overlay.dropped_queue", "count"},
    {"overlay.dropped_loss", "count"},
    {"overlay.dropped_late", "count"},
    {"overlay.missed_absent", "count"},
    {"overlay.topology_s", "s"},
    {"overlay.trees_s", "s"},
    {"overlay.bytes_per_receiver", "B"},
    {"core.add_box_s", "s"},
    {"core.plumb_s", "s"},
    {"trace.overhead_ratio", "ratio"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/traces";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

EpisodeOptions Untraced(uint64_t seed) {
  EpisodeOptions options;
  options.seed = seed;
  options.threads = kThreads;
  return options;
}

// Ratio of two measured quantities, 0 when the base is 0.
double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

template <typename F>
double QuantileOver(const std::vector<Episode>& episodes, double q, F&& f) {
  std::vector<double> values;
  for (const Episode& ep : episodes) {
    values.push_back(f(ep));
  }
  return Quantile(std::move(values), q);
}

// Host time is read at the run's best episode.  Other tenants of a shared
// host slow whole stretches of several seconds, which moves a median by
// ~10-20 % from run to run.  An episode's work is fixed, so no episode can
// run faster than the host allows: the fastest one tracks the simulator's
// own speed, and it spread least across runs of any quantile tried (p50 to
// p95).  Rates take the maximum, durations the minimum.
template <typename F>
double RateOver(const std::vector<Episode>& episodes, F&& f) {
  return QuantileOver(episodes, 1.0, std::forward<F>(f));
}
template <typename F>
double TimeOver(const std::vector<Episode>& episodes, F&& f) {
  return QuantileOver(episodes, 0.0, std::forward<F>(f));
}

bool SameMetrics(const MetricList& a, const MetricList& b) {
  if (a.items().size() != b.items().size()) {
    return false;
  }
  for (size_t i = 0; i < a.items().size(); ++i) {
    if (a.items()[i].name != b.items()[i].name || a.items()[i].value != b.items()[i].value) {
      return false;
    }
  }
  return true;
}

// The state every run accumulates: episodes, the gate verdict, and counts
// for the result line (an operation is one episode checked against its gate).
struct Run {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  std::vector<Episode> untraced;
  std::vector<Episode> traced;
  Episode reference;  // overlay_storm: the same seed on one worker thread
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;

  // Gates one episode: its workload gate, identity with the first episode's
  // simulated outcome, and (sharded) the 1-thread run hash.
  void Check(const Episode& ep, const char* label) {
    ++attempted;
    std::string why = ep.gate_failure;
    const Episode& first = untraced.empty() ? ep : untraced.front();
    if (why.empty() && (!SameMetrics(ep.sim, first.sim) || !SameMetrics(ep.layer, first.layer))) {
      why = "simulated outcome differs from the seed's first episode";
    }
    if (why.empty() && spec->sharded && ep.run_hash != reference.run_hash) {
      why = "RunHash differs from the seed's 1-thread run";
    }
    if (!why.empty()) {
      ++failed;
      failures.push_back(std::string(label) + ": " + why);
    }
  }

  void RunReference(SpanLog* spans) {
    if (!spec->sharded) {
      return;
    }
    ScopedSpan span(spans, "reference_1_thread");
    EpisodeOptions options;
    options.seed = seed;
    options.threads = 1;
    reference = spec->run(options);
  }
};

void PrintResult(const Run& run, const MetricList& metrics, const MetricSpec* specs, size_t n) {
  for (const std::string& f : run.failures) {
    std::printf("GATE FAILED %s\n", f.c_str());
  }
  std::string json = "{\"correct\": ";
  json += run.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(run.attempted);
  json += ", \"failed\": " + std::to_string(run.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < n; ++i) {
    const Metric* m = metrics.Find(specs[i].name);
    double value = m != nullptr ? m->value : 0.0;
    if (!std::isfinite(value)) {
      value = 0.0;
    }
    char buf[512];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", specs[i].name, value, specs[i].unit);
    json += buf;
    std::printf("  %-34s %20.6f %s\n", specs[i].name, value, specs[i].unit);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

MetricList EndToEnd(const std::vector<Episode>& episodes) {
  MetricList m;
  m.Set("sim_rate", RateOver(episodes, [](const Episode& e) { return e.sim_s / e.wall_s; }),
        "sim-s/s");
  m.Set("deliveries_per_s",
        RateOver(episodes,
                 [](const Episode& e) { return static_cast<double>(e.deliveries) / e.wall_s; }),
        "1/s");
  m.Set("setup_s", TimeOver(episodes, [](const Episode& e) { return e.setup_s; }), "s");
  m.Set("peak_rss_mb", PeakRssMb(), "MB");
  for (const Metric& s : episodes.front().sim.items()) {
    m.Set(s.name, s.value, s.unit);
  }
  return m;
}

int RunUntraced(Run& run, double seconds) {
  run.RunReference(nullptr);
  double measured = 0.0;
  while (measured < seconds || static_cast<int>(run.untraced.size()) < kMinEpisodes) {
    Episode ep = run.spec->run(Untraced(run.seed));
    measured += ep.wall_s;
    run.Check(ep, "episode");
    run.untraced.push_back(std::move(ep));
  }
  if (run.spec->sharded) {
    run.Check(run.reference, "1-thread reference");
  }
  std::printf("perfbench %s seed=%llu episodes=%zu measured_s=%.3f hardware_threads=%u\n",
              run.spec->name, static_cast<unsigned long long>(run.seed), run.untraced.size(),
              measured, std::thread::hardware_concurrency());
  PrintResult(run, EndToEnd(run.untraced), kEndToEnd, std::size(kEndToEnd));
  return run.failed == 0 ? 0 : 1;
}

int RunTraced(Run& run, double seconds, const std::string& out_dir) {
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const std::string stem =
      out_dir + "/" + run.spec->name + ".seed" + std::to_string(run.seed);
  SpanLog spans;
  MetricList rigs;
  std::string rig_error;
  {
    ScopedSpan root(&spans, std::string("perfbench.") + run.spec->name);
    run.RunReference(&spans);
    double measured = 0.0;
    while (measured < seconds || static_cast<int>(run.traced.size()) < kMinEpisodes) {
      {
        ScopedSpan span(&spans, "episode_untraced");
        Episode ep = run.spec->run(Untraced(run.seed));
        measured += ep.wall_s;
        run.Check(ep, "untraced episode");
        run.untraced.push_back(std::move(ep));
      }
      ScopedSpan span(&spans, "episode_traced");
      EpisodeOptions options = Untraced(run.seed);
      options.sim_trace = true;
      options.spans = &spans;
      if (run.traced.empty()) {
        options.sim_trace_path = stem + ".sim_trace.json";
      }
      Episode ep = run.spec->run(options);
      measured += ep.wall_s;
      run.Check(ep, "traced episode");
      run.traced.push_back(std::move(ep));
    }
    if (run.spec->sharded) {
      run.Check(run.reference, "1-thread reference");
    }
    ScopedSpan span(&spans, "rigs");
    rig_error = RunRigs(run.untraced.front().rig, &spans, &rigs);
  }
  if (!rig_error.empty()) {
    ++run.attempted;
    ++run.failed;
    run.failures.push_back("rig: " + rig_error);
  }
  const std::string span_path = stem + ".host_spans.json";
  if (!spans.WriteJson(span_path)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", span_path.c_str());
  }

  const std::vector<Episode>& u = run.untraced;
  const Episode& first = u.front();
  MetricList m;
  for (const Metric& x : first.layer.items()) {
    m.Set(x.name, x.value, x.unit);
  }
  for (const Metric& x : run.traced.front().histograms.items()) {
    m.Set(x.name, x.value, x.unit);
  }
  for (const Metric& x : rigs.items()) {
    m.Set(x.name, x.value, x.unit);
  }
  for (const Metric& x : first.host_layer.items()) {
    const std::string name = x.name;
    m.Set(name, TimeOver(u, [&name](const Episode& e) { return e.host_layer.Find(name)->value; }),
          x.unit);
  }
  m.Set("runtime.ns_per_event", TimeOver(u, [](const Episode& e) {
          return Ratio(e.wall_s * 1e9, static_cast<double>(e.events));
        }),
        "ns");
  m.Set("runtime.allocs_per_event", QuantileOver(u, 0.5, [](const Episode& e) {
          return Ratio(static_cast<double>(e.allocs), static_cast<double>(e.events));
        }),
        "count");
  const double untraced_rate = RateOver(u, [](const Episode& e) { return e.sim_s / e.wall_s; });
  const double traced_rate =
      RateOver(run.traced, [](const Episode& e) { return e.sim_s / e.wall_s; });
  m.Set("trace.overhead_ratio", Ratio(untraced_rate, traced_rate), "ratio");
  if (run.spec->sharded) {
    m.Set("shard.wall_per_window_us", TimeOver(u, [](const Episode& e) {
            return Ratio(e.wall_s * 1e6, static_cast<double>(e.windows));
          }),
          "us");
    const double rate = RateOver(
        u, [](const Episode& e) { return static_cast<double>(e.deliveries) / e.wall_s; });
    const Episode& ref = run.reference;
    m.Set("shard.thread_speedup", Ratio(rate, static_cast<double>(ref.deliveries) / ref.wall_s),
          "ratio");
  }
  const RigInputs& rig = first.rig;
  std::printf("perfbench %s seed=%llu traced episodes=%zu untraced episodes=%zu "
              "hardware_threads=%u spans=%s\n"
              "rig inputs: audio_payload=%dB video_payload=%dB wire=%dB fanout=%d "
              "streams_per_mixer=%d\n",
              run.spec->name, static_cast<unsigned long long>(run.seed), run.traced.size(),
              u.size(), std::thread::hardware_concurrency(), span_path.c_str(),
              rig.audio_payload_bytes, rig.video_payload_bytes, rig.wire_bytes, rig.fanout,
              rig.streams_per_mixer);
  PrintResult(run, m, kPerLayer, std::size(kPerLayer));
  return run.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--out-dir <dir>]\n");
    return 2;
  }
  Run run;
  for (const WorkloadSpec& spec : kWorkloads) {
    if (args.workload == spec.name) {
      run.spec = &spec;
    }
  }
  if (run.spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  run.seed = args.seed;
  return args.trace ? RunTraced(run, args.seconds, args.out_dir) : RunUntraced(run, args.seconds);
}
