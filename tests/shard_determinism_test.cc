// Shard-invariance determinism suite for the M:N scheduler (ShardSet).
//
// The contract under test, from DESIGN.md section 13: per-shard dispatch
// order is a pure function of (seed, plan, shard assignment) — never of the
// executor thread count — and the single-shard configuration is bit-
// identical to a bare Scheduler, so every pre-shard golden keeps its bytes.
//
// Three configurations of the same storm are compared:
//
//   threads=1 / shards=1     the legacy engine (delegation fast path)
//   threads=1 / shards=8     conservative windows, no worker pool
//   threads=8 / shards=8     conservative windows on 8 OS threads
//
// The last two must agree on EVERYTHING (per-shard order-sensitive hashes,
// window count, cross-shard message count, context switches): M:N execution
// is pure bookkeeping.  The first must agree on the partition-invariant
// merged hash and every traffic total: conservative sync delivers the same
// multiset of (time, payload) per link that the sequential engine does.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/core/box.h"
#include "src/core/simulation.h"
#include "src/fault/plan.h"
#include "src/overlay/sharded.h"
#include "src/overlay/topology.h"
#include "src/overlay/tree.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/shard_set.h"
#include "src/runtime/time.h"
#include "tests/shard_harness.h"

namespace pandora {
namespace {

ShardStormOptions BaseStorm(uint64_t seed) {
  ShardStormOptions opt;
  opt.shards = 8;
  opt.threads = 1;
  opt.total_actors = 32;
  opt.seed = seed;
  opt.duration = Seconds(1);
  return opt;
}

TEST(ShardDeterminism, ThreadCountIsInvisible) {
  // Same partition, 1 vs 8 executor threads: every observable — including
  // the order-sensitive per-shard chains and the scheduler digests — must be
  // byte-identical.  This is the M:N core guarantee.
  ShardStormOptions sequential = BaseStorm(0xA11CE);
  ShardStormOptions threaded = sequential;
  threaded.threads = 8;

  const ShardStormResult a = RunShardStorm(sequential);
  const ShardStormResult b = RunShardStorm(threaded);

  ASSERT_EQ(a.shard_hashes.size(), 8u);
  for (size_t s = 0; s < a.shard_hashes.size(); ++s) {
    EXPECT_EQ(a.shard_hashes[s], b.shard_hashes[s]) << "shard " << s << " diverged";
  }
  EXPECT_TRUE(a == b);
  // The storm was real: traffic crossed shards and forwarders churned.
  EXPECT_GT(a.deliveries, 1000u);
  EXPECT_GT(a.cross_shard_messages, 1000u);
  EXPECT_GT(a.replies, 0u);
  EXPECT_GT(a.windows, 0u);
}

TEST(ShardDeterminism, PartitionIsInvisibleToObservables) {
  // 1 shard vs 8 shards (either thread count): the partition may only change
  // which wheel arms a timer, never what any actor observes.  Totals and the
  // commutative merged hash pin the multiset of deliveries per link.
  ShardStormOptions single = BaseStorm(0xBEEF);
  single.shards = 1;
  ShardStormOptions eight = BaseStorm(0xBEEF);
  ShardStormOptions eight_mt = eight;
  eight_mt.threads = 8;

  const ShardStormResult one = RunShardStorm(single);
  const ShardStormResult seq = RunShardStorm(eight);
  const ShardStormResult par = RunShardStorm(eight_mt);

  EXPECT_EQ(one.merged_hash, seq.merged_hash);
  EXPECT_EQ(one.merged_hash, par.merged_hash);
  EXPECT_EQ(one.sends, seq.sends);
  EXPECT_EQ(one.deliveries, seq.deliveries);
  EXPECT_EQ(one.drops, seq.drops);
  EXPECT_EQ(one.replies, seq.replies);
  EXPECT_GT(one.deliveries, 1000u);
  // The single-shard run went down the legacy fast path: no windows, no
  // mailboxes — the pre-shard engine, byte for byte.
  EXPECT_EQ(one.windows, 0u);
  EXPECT_EQ(one.cross_shard_messages, 0u);
  EXPECT_GT(seq.cross_shard_messages, 0u);
}

TEST(ShardDeterminism, ReplayIsBitExactAcrossRuns) {
  // Two cold runs of the identical threaded configuration, fault plan and
  // all: process slabs, wheels, pools and worker pool are rebuilt from
  // scratch, and every hash must still come out identical.
  RandomPlanOptions plan_options;
  plan_options.start = Millis(100);
  plan_options.horizon = Millis(700);
  plan_options.min_events = 4;
  plan_options.max_events = 8;
  plan_options.box_count = 32;
  plan_options.call_count = 4;
  plan_options.min_episode = Millis(50);
  plan_options.max_episode = Millis(200);
  const FaultPlan plan = RandomFaultPlan(0xD15EA5E, plan_options);

  ShardStormOptions opt = BaseStorm(0xF00D);
  opt.threads = 8;
  opt.plan = &plan;

  const ShardStormResult first = RunShardStorm(opt);
  const ShardStormResult second = RunShardStorm(opt);
  EXPECT_TRUE(first == second);
  EXPECT_GT(first.deliveries, 0u);
}

TEST(ShardDeterminism, ChaosOverlayIsPartitionInvariant) {
  // A scripted storm with every materialised fault kind: crashes + restarts
  // (kill sweeps mid-window), churn, burst loss and a jitter storm.  The
  // merged hash must survive repartitioning even while actors die and their
  // forwarders are swept.
  FaultPlan plan;
  FaultEvent crash;
  crash.at = Millis(200);
  crash.kind = FaultKind::kBoxCrash;
  crash.target = 3;
  crash.duration = Millis(150);
  plan.events.push_back(crash);
  FaultEvent churn;
  churn.at = Millis(300);
  churn.kind = FaultKind::kChurn;
  churn.target = 13;
  churn.duration = Millis(200);
  plan.events.push_back(churn);
  FaultEvent loss;
  loss.at = Millis(350);
  loss.kind = FaultKind::kBurstLoss;
  loss.value = 0.4;
  loss.duration = Millis(250);
  plan.events.push_back(loss);
  FaultEvent jitter;
  jitter.at = Millis(500);
  jitter.kind = FaultKind::kJitterStorm;
  jitter.value = 900;  // up to 900us of extra (still lookahead-safe) latency
  jitter.duration = Millis(300);
  plan.events.push_back(jitter);

  ShardStormOptions single = BaseStorm(0xCAFE);
  single.shards = 1;
  single.plan = &plan;
  ShardStormOptions eight_mt = BaseStorm(0xCAFE);
  eight_mt.threads = 8;
  eight_mt.plan = &plan;

  const ShardStormResult one = RunShardStorm(single);
  const ShardStormResult par = RunShardStorm(eight_mt);

  // The overlay engaged identically in both partitions.
  EXPECT_EQ(one.crashes, 2u);
  EXPECT_EQ(one.restarts, 2u);
  EXPECT_GT(one.drops, 0u);
  EXPECT_EQ(par.crashes, one.crashes);
  EXPECT_EQ(par.restarts, one.restarts);
  EXPECT_EQ(par.drops, one.drops);
  EXPECT_EQ(par.sends, one.sends);
  EXPECT_EQ(par.deliveries, one.deliveries);
  EXPECT_EQ(par.merged_hash, one.merged_hash);
}

TEST(ShardDeterminism, SingleShardIsBitIdenticalToBareScheduler) {
  // The golden-compatibility proof: the identical coroutine workload on a
  // bare Scheduler and on ShardSet{shards=1} must agree on the full
  // execution fingerprint — clock, context switches, pending timers, event
  // chain.  This is why every pre-shard golden (chaos_golden, the trace and
  // core goldens) is untouched by this refactor: Simulation now runs on a
  // ShardSet, and this path adds zero perturbation.
  auto pinger = [](Scheduler* sched, uint64_t* chain, int id, int rounds) -> Process {
    for (int i = 0; i < rounds; ++i) {
      co_await sched->WaitFor(Micros(100 + 37 * id));
      *chain = FnvMix(*chain, static_cast<uint64_t>(sched->now()) ^ static_cast<uint64_t>(id));
      if ((i & 3) == 0) {
        co_await sched->Yield();
        *chain = FnvMix(*chain, 0x5eedull + static_cast<uint64_t>(id));
      }
    }
  };
  struct Fingerprint {
    uint64_t chain = 1469598103934665603ull;
    uint64_t switches = 0;
    Time now = 0;
    size_t pending = 0;
    size_t live = 0;
  };
  const auto drive = [&](Scheduler& sched, auto run_until) {
    Fingerprint fp;
    for (int id = 0; id < 16; ++id) {
      sched.Spawn(pinger(&sched, &fp.chain, id, 40), "pinger",
                  (id & 1) != 0 ? Priority::kHigh : Priority::kLow);
    }
    run_until(Millis(30));
    fp.switches = sched.context_switches();
    fp.now = sched.now();
    fp.pending = sched.pending_timer_count();
    fp.live = sched.live_process_count();
    return fp;
  };

  Scheduler bare;
  const Fingerprint a = drive(bare, [&](Time t) { bare.RunUntil(t); });
  bare.Shutdown();

  ShardSet set(ShardSetOptions{});  // shards=1, threads=1
  const Fingerprint b = drive(set.scheduler(), [&](Time t) { set.RunUntil(t); });

  EXPECT_EQ(a.chain, b.chain);
  EXPECT_EQ(a.switches, b.switches);
  EXPECT_EQ(a.now, b.now);
  EXPECT_EQ(a.pending, b.pending);
  EXPECT_EQ(a.live, b.live);
  EXPECT_NE(a.switches, 0u);
  // Legacy mode never opened a window or touched a mailbox.
  EXPECT_EQ(set.windows(), 0u);
  EXPECT_EQ(set.cross_shard_messages(), 0u);
  set.Shutdown();
}

TEST(ShardDeterminism, LookaheadScalesWindowCountNotObservables) {
  // Doubling the lookahead halves (roughly) the number of windows but must
  // not change what any actor sees: the window size is an engine tuning
  // knob, not a semantic one.  (Links in the storm carry latency >= the
  // configured lookahead, so both settings satisfy the contract.)
  ShardStormOptions tight = BaseStorm(0x1DEA);
  tight.lookahead = Millis(1);
  tight.base_latency = Millis(1);  // pin link latency across the sweep
  tight.duration = Millis(500);
  ShardStormOptions wide = tight;
  wide.lookahead = Micros(500);  // same links, smaller safe horizon

  const ShardStormResult a = RunShardStorm(tight);
  const ShardStormResult c = RunShardStorm(wide);
  EXPECT_GT(c.windows, a.windows);
  EXPECT_EQ(a.merged_hash, c.merged_hash);
  EXPECT_EQ(a.sends, c.sends);
  EXPECT_EQ(a.deliveries, c.deliveries);
}

// --- Pinned against the sort-drain engine ------------------------------------
// The tests above compare thread counts with each other, which a change that
// perturbs every thread count alike would pass.  These pin absolute values
// recorded on the windowed engine as it stood before the destination-side
// mailbox drain replaced the coordinator's merge-and-sort: per-shard
// digests, cross-shard traffic, window and idle-skip counts, the overlay
// run hash and the spanning-Simulation observables, at a mid-run RunUntil
// stop and at the end of the run.  A mismatch here means the engine changed
// what a world observes, not just how fast it gets there.

// Everything the 8-shard storm leaves behind that the engine can influence.
std::vector<uint64_t> StormSnapshot(ShardSet& set) {
  std::vector<uint64_t> out;
  for (int s = 0; s < set.shard_count(); ++s) {
    out.push_back(set.ShardDigest(s));
  }
  out.push_back(set.cross_shard_messages());
  out.push_back(set.windows());
  out.push_back(set.idle_shard_skips());
  out.push_back(set.empty_mailbox_barriers());
  out.push_back(set.undrained_messages());
  return out;
}

TEST(ShardGolden, StormDigestsMatchPinnedEngine) {
  RandomPlanOptions plan_options;
  plan_options.start = Millis(100);
  plan_options.horizon = Millis(700);
  plan_options.min_events = 4;
  plan_options.max_events = 8;
  plan_options.box_count = 32;
  plan_options.call_count = 4;
  plan_options.min_episode = Millis(50);
  plan_options.max_episode = Millis(200);
  const FaultPlan plan = RandomFaultPlan(0xD15EA5E, plan_options);

  const std::vector<uint64_t> kMidRun = {
      11801583772020872949ull, 13807237447573768567ull, 9666716980362100740ull,
      6154499232874966058ull, 9824312225596023310ull, 12506189723355646404ull,
      15266720652557851952ull, 13421022703526730914ull, 5194ull, 421ull, 99ull, 1ull,
      0ull};
  const std::vector<uint64_t> kFinal = {
      14314702212455741256ull, 10441177628492825938ull, 13911897959973642631ull,
      12513396116815990823ull, 12870188952780659151ull, 1204349993610122753ull,
      2906908490226731273ull, 4351779750084133135ull, 12064ull, 962ull, 228ull, 2ull,
      0ull};
  const std::vector<uint64_t> kShardHashes = {
      9873162630291544196ull, 3982150915164704813ull, 16367977641642720410ull,
      3858931056615242943ull, 4254475495236498135ull, 3425302261803211519ull,
      15215165889670394106ull, 6689192984618397424ull};
  const uint64_t kMergedHash = 13261537403997901615ull;
  for (const int threads : {1, 4, 8}) {
    ShardStormOptions opt = BaseStorm(0xA11CE);
    opt.threads = threads;
    opt.plan = &plan;
    ShardStormWorld world(opt);
    world.Start();
    world.RunUntil(Millis(437));  // mid-window stop: the tail drains inline
    EXPECT_EQ(StormSnapshot(*world.shard_set()), kMidRun) << "threads=" << threads;
    world.RunUntil(opt.duration);
    EXPECT_EQ(StormSnapshot(*world.shard_set()), kFinal) << "threads=" << threads;
    const ShardStormResult result = world.Finish();
    EXPECT_EQ(result.shard_hashes, kShardHashes) << "threads=" << threads;
    EXPECT_EQ(result.merged_hash, kMergedHash) << "threads=" << threads;
  }
}

TEST(ShardGolden, OverlayRunHashMatchesPinnedEngine) {
  TopologyParams params;
  params.seed = 71;
  params.receivers = 600;
  params.fanout = 4;
  const std::vector<uint64_t> kPinned = {
      4803845657725836516ull, 115484ull, 961ull, 6322341758631893589ull, 233662ull,
      1960ull, 129ull, 99ull};
  for (const int threads : {1, 4}) {
    OverlayTopology topology = GenerateTopology(params);
    StripedTrees trees = TreeBuilder::Build(topology, 2, TreePolicy::kBalancedFanout);
    ChurnStormOptions storm;
    storm.receiver_count = params.receivers;
    storm.start = Millis(300);
    storm.horizon = Millis(1200);
    storm.min_events = 24;
    storm.max_events = 32;
    storm.permanent_fraction = 0.1;
    const FaultPlan plan = RandomChurnPlan(/*seed=*/5, storm);

    ShardSetOptions shard_options;
    shard_options.shards = 8;
    shard_options.threads = threads;
    ShardSet set(shard_options);
    ShardedOverlayMulticast multicast(&set, &topology, &trees, MulticastParams{}, 404);
    ShardedOverlayChurnDriver churn(&set, &multicast, plan);
    multicast.Start(/*emit_until=*/Millis(1800));
    churn.Start();
    set.RunUntil(Millis(901));
    std::vector<uint64_t> got = {multicast.RunHash(), set.cross_shard_messages(),
                                 set.windows()};
    set.RunUntilQuiescent();
    got.push_back(multicast.RunHash());
    got.push_back(set.cross_shard_messages());
    got.push_back(set.windows());
    got.push_back(set.idle_shard_skips());
    got.push_back(set.empty_mailbox_barriers());
    EXPECT_EQ(got, kPinned) << "threads=" << threads;
    set.Shutdown();
  }
}

// --- Mailbox arm order -------------------------------------------------------
// The drain arms cross-shard entries on their destination without sorting:
// source rows in ascending shard order, each row in post order.  Entries are
// drained at the same barriers the sort-based engine sorted them at, and
// within one drain that order equals the sort's (when, src, seq) order for
// equal `when`, because the wheel fires by (when, arm order).  Dispatch order
// is therefore (drain batch, when, src, seq) in both engines.  The first test
// keeps every shared `when` inside one batch, so the log equals a plain
// (when, src, seq) sort; the second pins the cross-batch case.

struct ArmLogEntry {
  Time when;
  int src;
  int seq;
  friend bool operator==(const ArmLogEntry&, const ArmLogEntry&) = default;
};

struct ArmLog {
  std::vector<ArmLogEntry> fired;  // written only by the destination shard
  int next_seq[3] = {0, 0, 0};     // per-source post count, written by the source
};

void PostLogged(ShardSet* set, ArmLog* log, int src, Time when) {
  const int seq = log->next_seq[src]++;
  ShardSet* sp = set;
  set->Post(src, 3, when, TimerCallback([sp, log, src, seq] {
              log->fired.push_back(ArmLogEntry{sp->shard(3).now(), src, seq});
            }));
}

TEST(ShardMailbox, SortFreeDrainKeepsWhenSrcSeqOrder) {
  for (const int threads : {1, 2, 4}) {
    ShardSetOptions options;
    options.shards = 4;
    options.threads = threads;
    ShardSet set(options);
    ArmLog log;
    ShardSet* sp = &set;
    ArmLog* lp = &log;
    // Each source fires twice inside the same 1 ms window and posts a mix
    // of shared and private delivery times, in an order that differs per
    // source, so the sources' rows interleave every way the drain can see.
    for (int src = 0; src < 3; ++src) {
      for (const Time at : {Millis(10), Millis(10) + 500}) {
        set.shard(src).AddTimer(at, TimerCallback([sp, lp, src] {
          const Time base = Millis(20);
          PostLogged(sp, lp, src, base + 7 * (2 - src));  // distinct per source
          PostLogged(sp, lp, src, base);                   // shared
          PostLogged(sp, lp, src, base + 100);             // shared
          PostLogged(sp, lp, src, base);                   // shared again
          PostLogged(sp, lp, src, base + 100 + src);       // distinct (src 0 shares)
        }));
      }
    }
    set.RunUntil(Millis(12));
    // Coordinator posts between Run* calls, sources out of order, all due
    // at instants no window post uses.
    for (const int src : {2, 0, 1, 2, 0}) {
      PostLogged(&set, &log, src, Millis(30));
      PostLogged(&set, &log, src, Millis(30) + 3 - src);
    }
    EXPECT_EQ(set.undrained_messages(), 10u);
    set.RunUntil(Millis(25));  // stops mid-stream: the 30 ms entries wait
    PostLogged(&set, &log, 1, Millis(31));
    PostLogged(&set, &log, 0, Millis(31));
    set.RunUntilQuiescent();

    ASSERT_EQ(log.fired.size(), 3u * 2u * 5u + 10u + 2u) << "threads=" << threads;
    std::vector<ArmLogEntry> expected = log.fired;
    std::sort(expected.begin(), expected.end(), [](const ArmLogEntry& a, const ArmLogEntry& b) {
      if (a.when != b.when) {
        return a.when < b.when;
      }
      return a.src != b.src ? a.src < b.src : a.seq < b.seq;
    });
    EXPECT_TRUE(log.fired == expected) << "threads=" << threads;
    EXPECT_EQ(set.cross_shard_messages(), log.fired.size());
    EXPECT_EQ(set.undrained_messages(), 0u);
    set.Shutdown();
  }
}

// A post whose delay exceeds the lookahead can share its `when` with a post
// made in a later window.  The two are drained at different barriers, so the
// earlier batch fires first whatever the sources' shard order: dispatch order
// is (drain batch, when, src, seq), not a global (when, src, seq).  The
// expected log was recorded on the sort-based engine.
TEST(ShardMailbox, EarlierDrainBatchFiresFirstForEqualWhen) {
  for (const int threads : {1, 2, 4}) {
    ShardSetOptions options;
    options.shards = 4;
    options.threads = threads;
    ShardSet set(options);
    ArmLog log;
    ShardSet* sp = &set;
    ArmLog* lp = &log;
    // 10 ms: source 2 posts with a 10 ms delay.
    set.shard(2).AddTimer(Millis(10), TimerCallback([sp, lp] {
      PostLogged(sp, lp, 2, Millis(20));
      PostLogged(sp, lp, 2, Millis(20) + 1);
    }));
    // 15 ms: sources 0 and 1 post to the same instants with a 5 ms delay.
    for (const int src : {1, 0}) {
      set.shard(src).AddTimer(Millis(15), TimerCallback([sp, lp, src] {
        PostLogged(sp, lp, src, Millis(20) + 1);
        PostLogged(sp, lp, src, Millis(20));
        PostLogged(sp, lp, src, Millis(19));
      }));
    }
    set.RunUntil(Millis(12));
    // Between Run* calls: drained at the next Run*'s first barrier, after
    // source 2's batch and before the 15 ms batch.
    PostLogged(&set, &log, 1, Millis(20));
    set.RunUntilQuiescent();

    const std::vector<ArmLogEntry> expected = {
        {Millis(19), 0, 2},     {Millis(19), 1, 3},     {Millis(20), 2, 0},
        {Millis(20), 1, 0},     {Millis(20), 0, 1},     {Millis(20), 1, 2},
        {Millis(20) + 1, 2, 1}, {Millis(20) + 1, 0, 0}, {Millis(20) + 1, 1, 1},
    };
    EXPECT_TRUE(log.fired == expected) << "threads=" << threads;
    EXPECT_EQ(set.cross_shard_messages(), expected.size());
    set.Shutdown();
  }
}

// --- Spanning Simulation worlds ---------------------------------------------
// The full product stack — PandoraBoxes, the ATM fabric, host plumbing —
// placed across the ShardSet rather than the synthetic storm actors above.

struct SpanningCalls {
  std::vector<PandoraBox*> boxes;
  std::vector<StreamId> at_dst;
  std::vector<PandoraBox*> dst;
};

// Four audio-only boxes pinned round-robin onto the set's shards, a ring of
// calls between neighbours (every leg cross-shard when shards > 1) plus one
// split copy two shards away.  Cross-shard circuits carry a 1 ms final
// propagation — exactly the set's lookahead floor.
SpanningCalls BuildSpanningWorld(Simulation& sim) {
  SpanningCalls world;
  const int shards = sim.shard_set().shard_count();
  for (int i = 0; i < 4; ++i) {
    PandoraBox::Options options;
    options.name = "span" + std::to_string(i);
    options.with_video = false;
    options.shard = i % shards;
    world.boxes.push_back(&sim.AddBox(options));
  }
  sim.Start();
  CallPath wan;
  wan.direct.propagation = Millis(1);
  for (int i = 0; i < 4; ++i) {
    PandoraBox& src = *world.boxes[static_cast<size_t>(i)];
    PandoraBox& dst = *world.boxes[static_cast<size_t>((i + 1) % 4)];
    world.at_dst.push_back(sim.SendAudio(src, dst, wan));
    world.dst.push_back(&dst);
  }
  world.at_dst.push_back(
      sim.SplitAudioTo(*world.boxes[0], world.boxes[0]->mic_stream(), *world.boxes[2], wan));
  world.dst.push_back(world.boxes[2]);
  return world;
}

// Order-sensitive digest of everything the world observed: fabric totals,
// per-shard execution fingerprints, per-box wire-path copies, per-call
// receive trackers, per-shard report logs.
uint64_t SpanningFingerprint(Simulation& sim, const SpanningCalls& world) {
  uint64_t hash = kFnvOffset;
  hash = FnvMix(hash, sim.network().total_delivered());
  hash = FnvMix(hash, sim.network().total_lost());
  hash = FnvMix(hash, sim.network().total_corrupted());
  for (int s = 0; s < sim.shard_set().shard_count(); ++s) {
    Scheduler& shard = sim.shard_set().shard(s);
    hash = FnvMix(hash, shard.context_switches());
    hash = FnvMix(hash, static_cast<uint64_t>(shard.now()));
    hash = FnvMix(hash, shard.pending_timer_count());
    hash = FnvMix(hash, sim.reports_for(s).size());
  }
  for (PandoraBox* box : world.boxes) {
    hash = FnvMix(hash, box->crash_count());
    hash = FnvMix(hash, box->crashed() ? 1u : box->deep_copies());
  }
  for (size_t i = 0; i < world.at_dst.size(); ++i) {
    if (world.dst[i]->crashed()) {
      hash = FnvMix(hash, 0xdead);
      continue;
    }
    const SequenceTracker* tracker =
        world.dst[i]->audio_receiver().TrackerFor(world.at_dst[i]);
    if (tracker == nullptr) {
      hash = FnvMix(hash, 0);
      continue;
    }
    hash = FnvMix(hash, tracker->received());
    hash = FnvMix(hash, tracker->missing_total());
  }
  return hash;
}

TEST(SpanningSimulation, ThreadCountIsInvisible) {
  // The acceptance bar for the spanning refactor: a Simulation whose boxes
  // live on four different shards produces byte-identical observables at 1
  // and 4 worker threads.
  SimulationOptions options;
  options.seed = 0x5A17;
  options.shards = 4;
  options.threads = 1;
  Simulation seq(options);
  SpanningCalls seq_world = BuildSpanningWorld(seq);
  seq.RunFor(Seconds(2));

  options.threads = 4;
  Simulation par(options);
  SpanningCalls par_world = BuildSpanningWorld(par);
  par.RunFor(Seconds(2));

  EXPECT_EQ(SpanningFingerprint(seq, seq_world), SpanningFingerprint(par, par_world));
  // The world genuinely spanned: live audio crossed shard boundaries.
  EXPECT_GT(seq.network().total_delivered(), 1000u);
  EXPECT_GT(seq.shard_set().cross_shard_messages(), 1000u);
  EXPECT_GT(par.shard_set().windows(), 0u);
}

TEST(ShardGolden, SpanningSimulationMatchesPinnedEngine) {
  // Real boxes across four shards, stopped mid-run by RunFor (the clock
  // lands between windows, with cross-shard audio in flight) and then run
  // on: both fingerprints are pinned.
  const std::vector<uint64_t> kPinned = {
      12979356302225796140ull, 915ull, 0ull, 5458848161067258209ull, 2495ull,
      1500ull};
  for (const int threads : {1, 4}) {
    SimulationOptions options;
    options.seed = 0x5A17;
    options.shards = 4;
    options.threads = threads;
    Simulation sim(options);
    SpanningCalls world = BuildSpanningWorld(sim);
    sim.RunFor(Millis(733));
    std::vector<uint64_t> got = {SpanningFingerprint(sim, world),
                                 sim.shard_set().cross_shard_messages(),
                                 sim.shard_set().undrained_messages()};
    sim.RunFor(Millis(1267));
    got.push_back(SpanningFingerprint(sim, world));
    got.push_back(sim.shard_set().cross_shard_messages());
    got.push_back(sim.shard_set().windows());
    EXPECT_EQ(got, kPinned) << "threads=" << threads;
  }
}

TEST(SpanningSimulation, LegacyCtorIsTheSingleShardOptionsWorld) {
  // Simulation(seed) must be exactly SimulationOptions{seed} with one shard:
  // same placement (none), same RNG streams, same execution fingerprint.
  Simulation legacy(7);
  SpanningCalls legacy_world = BuildSpanningWorld(legacy);
  legacy.RunFor(Seconds(1));

  SimulationOptions options;
  options.seed = 7;
  Simulation modern(options);
  SpanningCalls modern_world = BuildSpanningWorld(modern);
  modern.RunFor(Seconds(1));

  EXPECT_EQ(SpanningFingerprint(legacy, legacy_world),
            SpanningFingerprint(modern, modern_world));
  // Single-shard worlds ride the legacy fast path: no windows, no mailboxes.
  EXPECT_EQ(modern.shard_set().windows(), 0u);
  EXPECT_EQ(modern.shard_set().cross_shard_messages(), 0u);
}

TEST(SpanningSimulation, SeededPlacementIsDeterministicAndSpreads) {
  // Boxes that leave Options::shard at -1 draw from the Simulation's seeded
  // placement stream: two worlds with one seed place identically, and the
  // draws actually use more than one shard.
  SimulationOptions options;
  options.seed = 99;
  options.shards = 4;
  Simulation a(options);
  Simulation b(options);
  std::vector<int> placed_a;
  std::vector<int> placed_b;
  for (int i = 0; i < 16; ++i) {
    PandoraBox::Options box_options;
    box_options.name = "p" + std::to_string(i);
    box_options.with_video = false;
    placed_a.push_back(a.AddBox(box_options).shard());
    placed_b.push_back(b.AddBox(box_options).shard());
  }
  EXPECT_EQ(placed_a, placed_b);
  std::set<int> distinct(placed_a.begin(), placed_a.end());
  EXPECT_GT(distinct.size(), 1u);
  for (int shard : placed_a) {
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 4);
  }
}

// --- The lookahead contract, enforced loudly --------------------------------

TEST(ShardSetPostDeathTest, PostInsideWindowViolatesLookaheadContract) {
  // A cross-shard message due at the sender's own `now` lands inside the
  // very window it was produced in: the destination may already have run
  // past that instant, so Post must refuse to rewrite history.
  ShardSetOptions options;
  options.shards = 2;
  options.threads = 1;  // no worker threads: safe for the default death-test style
  ShardSet set(options);
  ShardSet* sp = &set;
  set.shard(0).AddTimer(Millis(5), TimerCallback([sp] {
    sp->Post(0, 1, sp->shard(0).now(), TimerCallback([] {}));
  }));
  EXPECT_DEATH(set.RunUntilQuiescent(), "cross-shard Post inside the conservative window");
  set.Shutdown();
}

TEST(ShardSetPostDeathTest, PostGlobalIntoExecutedWindowDies) {
  ShardSetOptions options;
  options.shards = 2;
  options.threads = 1;
  ShardSet set(options);
  set.shard(0).AddTimer(Millis(5), TimerCallback([] {}));
  set.RunUntilQuiescent();
  EXPECT_DEATH(set.PostGlobal(Millis(1), TimerCallback([] {})), "already-executed window");
  set.Shutdown();
}

TEST(SpanningSimulationDeathTest, CrossShardCircuitBelowLookaheadFloorDies) {
  // The contract surfaces at plumbing time, not delivery time: opening a
  // circuit whose final-stage propagation undercuts the lookahead dies in
  // OpenCircuit, long before any segment could violate a window.
  SimulationOptions options;
  options.shards = 2;
  Simulation sim(options);
  PandoraBox::Options box_options;
  box_options.name = "near";
  box_options.with_video = false;
  box_options.shard = 0;
  PandoraBox& near_box = sim.AddBox(box_options);
  box_options.name = "far";
  box_options.shard = 1;
  PandoraBox& far_box = sim.AddBox(box_options);
  sim.Start();
  // Default direct quality: 20 us propagation, far below the 1 ms lookahead.
  EXPECT_DEATH(sim.SendAudio(near_box, far_box),
               "cross-shard circuit latency below the ShardSet lookahead floor");
}

// --- Sharded overlay data plane ---------------------------------------------

TEST(ShardedOverlay, RunHashIsThreadAndPartitionInvariant) {
  // A 600-receiver striped overlay under a churn storm: the observable run
  // hash must not depend on the worker-thread count, nor — because loss
  // draws are stateless per copy and every counter is per-receiver — on the
  // partition itself (1 shard vs 4).  The second world loses 2 % of the
  // copies arriving on the suburban tier, which exercises the loss draw and,
  // across shards, the loss notice charged on the child's shard.
  struct Outcome {
    uint64_t hash = 0;
    int64_t dropped_loss = 0;
  };
  const auto run = [](const TopologyParams& params, int shards, int threads) {
    OverlayTopology topology = GenerateTopology(params);
    StripedTrees trees = TreeBuilder::Build(topology, 2, TreePolicy::kBalancedFanout);
    ChurnStormOptions storm;
    storm.receiver_count = params.receivers;
    storm.start = Millis(300);
    storm.horizon = Millis(1200);
    storm.min_events = 24;
    storm.max_events = 32;
    storm.permanent_fraction = 0.1;
    const FaultPlan plan = RandomChurnPlan(/*seed=*/5, storm);

    ShardSetOptions shard_options;
    shard_options.shards = shards;
    shard_options.threads = threads;
    ShardSet set(shard_options);
    ShardedOverlayMulticast multicast(&set, &topology, &trees, MulticastParams{}, 404);
    ShardedOverlayChurnDriver churn(&set, &multicast, plan);
    multicast.Start(/*emit_until=*/Millis(1800));
    churn.Start();
    set.RunUntilQuiescent();
    EXPECT_GT(multicast.emitted(), 0);
    EXPECT_GT(multicast.repairs(), 0);
    Outcome outcome;
    outcome.hash = multicast.RunHash();
    for (int r = 0; r < params.receivers; ++r) {
      outcome.dropped_loss += multicast.stats(r).dropped_loss;
    }
    set.Shutdown();
    return outcome;
  };
  TopologyParams lossless;
  lossless.seed = 71;
  lossless.receivers = 600;
  lossless.fanout = 4;
  TopologyParams lossy = lossless;
  lossy.classes[1].link.loss_rate = 0.02;
  for (const TopologyParams& params : {lossless, lossy}) {
    const bool is_lossy = params.classes[1].link.loss_rate > 0.0;
    const Outcome single = run(params, 1, 1);
    const Outcome sharded = run(params, 4, 1);
    const Outcome threaded = run(params, 4, 4);
    EXPECT_EQ(single.hash, sharded.hash) << "lossy=" << is_lossy;
    EXPECT_EQ(sharded.hash, threaded.hash) << "lossy=" << is_lossy;
    if (is_lossy) {
      EXPECT_GT(single.dropped_loss, 0);
    } else {
      EXPECT_EQ(single.dropped_loss, 0);
    }
  }
}

}  // namespace
}  // namespace pandora
