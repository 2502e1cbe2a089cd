// Thread-sanitizer soak for the sharded M:N scheduler.
//
// This suite exists to put every cross-thread edge of ShardSet under load
// while TSan watches (the PANDORA_TSAN CI leg): the coordinator/worker
// barrier handshake, mailbox production from many shards draining into many
// wheels, per-thread FramePool recycling under heavy spawn churn, kill
// sweeps racing nothing (they run inside a shard's own window), and the
// merged trace export reading every shard's buffer after the barriers have
// quiesced.  The assertions are deliberately light — the shard-invariance
// golden test owns exactness; under TSan this file's job is to make every
// racy interleaving REACHABLE, and let the sanitizer fail the run if any
// access is unsynchronised.
//
// Kept in the plain tier-1 run as well (it is cheap without instrumentation
// and doubles as an uneven-assignment regression test: shards % threads != 0
// exercises workers owning different shard counts).
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/fault/plan.h"
#include "src/runtime/shard_set.h"
#include "src/runtime/time.h"
#include "tests/shard_harness.h"

namespace pandora {
namespace {

TEST(ShardSoak, StormWithChurnAndChaosUnderFullThreading) {
  RandomPlanOptions plan_options;
  plan_options.start = Millis(50);
  plan_options.horizon = Millis(600);
  plan_options.min_events = 6;
  plan_options.max_events = 10;
  plan_options.box_count = 48;
  plan_options.call_count = 4;
  plan_options.min_episode = Millis(40);
  plan_options.max_episode = Millis(150);
  const FaultPlan plan = RandomFaultPlan(0x50AC, plan_options);

  ShardStormOptions opt;
  opt.shards = 8;
  opt.threads = 8;
  opt.total_actors = 48;
  opt.seed = 0x50AC;
  opt.duration = Millis(800);
  opt.plan = &plan;

  const ShardStormResult result = RunShardStorm(opt);
  EXPECT_GT(result.deliveries, 1000u);
  EXPECT_GT(result.cross_shard_messages, 0u);
  EXPECT_GT(result.windows, 0u);
}

TEST(ShardSoak, UnevenShardToWorkerAssignment) {
  // 8 shards on 3 workers: worker 0 owns shards {0,3,6}, worker 1 {1,4,7},
  // worker 2 {2,5}.  The result must match the sequential run anyway — and
  // under TSan the lopsided finish times stress the barrier's busy-count handshake.
  ShardStormOptions opt;
  opt.shards = 8;
  opt.threads = 3;
  opt.total_actors = 24;
  opt.seed = 0x0DD;
  opt.duration = Millis(600);

  ShardStormOptions sequential = opt;
  sequential.threads = 1;

  const ShardStormResult uneven = RunShardStorm(opt);
  const ShardStormResult seq = RunShardStorm(sequential);
  EXPECT_TRUE(uneven == seq);
  EXPECT_GT(uneven.deliveries, 0u);
}

TEST(ShardSoak, RepeatedWorldsRecycleCleanly) {
  // Build and tear down threaded worlds back to back: worker pools started
  // and joined, slabs/wheels/outboxes destroyed while another world's
  // threads run.  Leaks or use-after-join here are TSan/ASan food.
  uint64_t previous = 0;
  for (int round = 0; round < 3; ++round) {
    ShardStormOptions opt;
    opt.shards = 6;
    opt.threads = 6;
    opt.total_actors = 18;
    opt.seed = 0x7EA + static_cast<uint64_t>(round);
    opt.duration = Millis(300);
    const ShardStormResult result = RunShardStorm(opt);
    EXPECT_GT(result.deliveries, 0u);
    EXPECT_NE(result.merged_hash, previous);  // seeds differ, storms differ
    previous = result.merged_hash;
  }
}

TEST(ShardSoak, MergedTraceExportAfterThreadedRun) {
  // Tracing writes per-shard buffers from worker threads; the merge reads
  // them all on the coordinator after the final barrier.  TSan checks the
  // happens-before edge; the JSON shape check is incidental.
  ShardSetOptions set_options;
  set_options.shards = 4;
  set_options.threads = 4;
  ShardSet set(set_options);
  set.EnableTrace(1024);
  for (int s = 0; s < 4; ++s) {
    auto ticker = [](Scheduler* sched, int rounds) -> Process {
      for (int i = 0; i < rounds; ++i) {
        co_await sched->WaitFor(Micros(500));
      }
    };
    set.shard(s).Spawn(ticker(&set.shard(s), 50), "ticker");
  }
  set.RunUntil(Millis(40));
  const std::string json = set.ExportMergedTraceJson();
  EXPECT_NE(json.find("\"s0:"), std::string::npos);
  EXPECT_NE(json.find("\"s3:"), std::string::npos);
  set.Shutdown();
}

// --- Barrier robustness ------------------------------------------------------
// The window barrier polls briefly (spinning only when the executors fit on
// the hardware threads) and then parks; the coordinator runs executor 0's
// shards itself.  These drive its edges: a waiter that outlasts its poll
// budget, more threads than cores, a shard exception escaping mid-window,
// and teardown with cross-shard traffic still undelivered.

// A deterministic busy loop standing in for a heavy shard's window work.
uint64_t Burn(uint64_t seed, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    seed = SplitMix64(seed);
  }
  return seed;
}

struct SkewedResult {
  uint64_t chain = 0;
  uint64_t ticks = 0;
  std::vector<uint64_t> digests;
  uint64_t cross = 0;
  uint64_t idle_skips = 0;
  friend bool operator==(const SkewedResult&, const SkewedResult&) = default;
};

// One heavy shard (5, owned by a spawned worker whenever threads > 1), seven
// idle ones; shard 0 pings the heavy shard now and then so the mailbox path
// runs too.  Every window but the pings' is one long shard and seven skips.
SkewedResult RunSkewed(int threads, Duration until) {
  ShardSetOptions options;
  options.shards = 8;
  options.threads = threads;
  ShardSet set(options);
  SkewedResult result;
  SkewedResult* rp = &result;
  auto heavy = [](Scheduler* sched, SkewedResult* r) -> Process {
    for (;;) {
      co_await sched->WaitFor(Millis(1));
      r->chain = Burn(r->chain ^ static_cast<uint64_t>(sched->now()), 100000);
      ++r->ticks;
    }
  };
  set.shard(5).Spawn(heavy(&set.shard(5), rp), "heavy");
  ShardSet* sp = &set;
  auto pinger = [](ShardSet* set, SkewedResult* r) -> Process {
    for (;;) {
      co_await set->shard(0).WaitFor(Millis(7));
      const Time when = set->shard(0).now() + Millis(2);
      set->Post(0, 5, when, TimerCallback([r, when] { r->chain ^= SplitMix64(when); }));
    }
  };
  set.shard(0).Spawn(pinger(sp, rp), "pinger");
  set.RunUntil(until);
  for (int s = 0; s < set.shard_count(); ++s) {
    result.digests.push_back(set.ShardDigest(s));
  }
  result.cross = set.cross_shard_messages();
  result.idle_skips = set.idle_shard_skips();
  set.Shutdown();
  return result;
}

TEST(ShardBarrier, SkewedWindowsOneHeavyShardSevenIdle) {
  const SkewedResult seq = RunSkewed(1, Millis(150));
  EXPECT_GT(seq.ticks, 100u);
  EXPECT_GT(seq.cross, 10u);
  EXPECT_GT(seq.idle_skips, 6u * 100u);
  for (const int threads : {2, 4, 8}) {
    EXPECT_TRUE(RunSkewed(threads, Millis(150)) == seq) << "threads=" << threads;
  }
}

TEST(ShardBarrier, MoreThreadsThanHardwareThreadsNeverSpins) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int threads = (hw > 0 ? hw : 1) * 2 + 1;
  ShardStormOptions opt;
  opt.shards = threads;
  opt.threads = threads;
  opt.total_actors = 2 * threads;
  opt.seed = 0x9A2C;
  opt.duration = Millis(300);
  ShardStormOptions sequential = opt;
  sequential.threads = 1;
  {
    ShardSetOptions options;
    options.shards = threads;
    options.threads = threads;
    ShardSet oversubscribed(options);
    EXPECT_FALSE(oversubscribed.spins()) << "more threads than cores must yield, not spin";
    options.threads = 1;
    ShardSet inline_only(options);
    EXPECT_FALSE(inline_only.spins()) << "a one-thread set has nobody to wait for";
    if (hw >= 2) {
      options.threads = 2;
      ShardSet fitting(options);
      EXPECT_TRUE(fitting.spins());
    }
  }
  const ShardStormResult oversubscribed = RunShardStorm(opt);
  const ShardStormResult seq = RunShardStorm(sequential);
  EXPECT_TRUE(oversubscribed == seq);
  EXPECT_GT(oversubscribed.cross_shard_messages, 0u);
}

// Shards 2 and 6 each host a process that throws at the same instant, so
// both fail inside one window while every shard is posting cross-shard
// traffic.  The set must rethrow shard 2's error (lowest shard first) with
// every worker parked, then keep running.
struct FaultyWorld {
  explicit FaultyWorld(int threads) {
    ShardSetOptions options;
    options.shards = 8;
    options.threads = threads;
    set = std::make_unique<ShardSet>(options);
    for (int s = 0; s < 8; ++s) {
      set->shard(s).Spawn(Chatter(set.get(), s, received), "chatter");
    }
    for (const int s : {6, 2}) {
      set->shard(s).Spawn(Thrower(&set->shard(s), s), "thrower");
    }
  }

  static Process Chatter(ShardSet* set, int s, uint64_t* received) {
    for (;;) {
      co_await set->shard(s).WaitFor(Micros(300 + 50 * s));
      uint64_t* target = &received[(s + 3) % 8];
      set->Post(s, (s + 3) % 8, set->shard(s).now() + Millis(1) + s,
                TimerCallback([target] { ++*target; }));
    }
  }

  static Process Thrower(Scheduler* sched, int s) {
    co_await sched->WaitFor(Millis(5) + 200);
    throw std::runtime_error("shard " + std::to_string(s));
  }

  std::unique_ptr<ShardSet> set;
  uint64_t received[8] = {};
};

TEST(ShardBarrier, MidWindowExceptionRethrowsLowestShardWithWorkersParked) {
  for (const int threads : {1, 3, 4, 8}) {
    FaultyWorld world(threads);
    std::string caught;
    try {
      world.set->RunUntil(Millis(20));
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
    EXPECT_EQ(caught, "shard 2") << "threads=" << threads;
    // The failing window left cross-shard rows behind; the set resumes from
    // the barrier, delivers them and keeps running on the same workers.
    EXPECT_GT(world.set->undrained_messages(), 0u) << "threads=" << threads;
    world.set->RunUntil(Millis(20));
    EXPECT_EQ(world.set->now(), Millis(20));
    EXPECT_EQ(world.set->undrained_messages(), 0u);
    uint64_t total = 0;
    for (const uint64_t n : world.received) {
      total += n;
    }
    EXPECT_GT(total, 100u) << "threads=" << threads;
    world.set->Shutdown();
  }
}

TEST(ShardBarrier, TeardownWithUndeliveredRows) {
  for (const int threads : {1, 4, 8}) {
    // Destructor path: a mid-window exception leaves this window's rows
    // undelivered, the coordinator adds more, and the set is destroyed
    // without Shutdown while its workers are parked.
    {
      FaultyWorld world(threads);
      EXPECT_THROW(world.set->RunUntil(Millis(20)), std::runtime_error);
      world.set->Post(1, 4, Millis(40), TimerCallback([] {}));
      EXPECT_GT(world.set->undrained_messages(), 1u);
    }
    // Shutdown path: rows posted between Run* calls plus entries already
    // armed on destination wheels by a RunUntil stop; Shutdown drops both,
    // and a second Shutdown (the destructor's) is a no-op.
    {
      FaultyWorld world(threads);
      EXPECT_THROW(world.set->RunUntil(Millis(20)), std::runtime_error);
      world.set->RunUntil(Millis(30));
      for (int src = 0; src < 8; ++src) {
        world.set->Post(src, (src + 1) % 8, Millis(33) + src, TimerCallback([] {}));
      }
      EXPECT_EQ(world.set->undrained_messages(), 8u);
      world.set->Shutdown();
      EXPECT_EQ(world.set->undrained_messages(), 0u);
    }
  }
}

}  // namespace
}  // namespace pandora
