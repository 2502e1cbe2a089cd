// ShardSet: the sharded M:N parallel scheduler.
//
// The paper's Pandora boxes are independent machines on an ATM LAN; the
// reproduction so far multiplexed every box onto one single-threaded
// event loop.  A ShardSet partitions the simulation into *shards* — each
// shard is a full Scheduler (its own timer wheel, process slab, ready
// queues, trace recorder, and, via thread-local FramePool free lists, its
// own coroutine-frame recycler) — and executes them on `threads` executors
// under conservative time synchronization:
//
//   window    All shards agree on a horizon W = min(next event over all
//             shards) + lookahead - 1 and run [.., W] in parallel, each on
//             its executor, touching only its own state.  The coordinator
//             (the thread calling Run*) is executor 0 and runs its own
//             shards; only threads - 1 OS threads are spawned.
//   barrier   Executors meet on an atomic round counter and busy count.  A
//             waiter polls for a bounded stretch, yielding between rounds,
//             then parks in std::atomic::wait.  It spins on CPU pause hints
//             only when the executors fit on the machine (threads <=
//             hardware threads); an oversubscribed set only yields, so a
//             waiter never burns the core the thread it waits for needs.
//   drain     Post appends to a per-(src, dst) outbox row that tracks its
//             earliest delivery time.  At the barrier the coordinator swaps
//             each non-empty row into inbox[dst][src], O(1) per row.  At the
//             start of the next window every executor arms its own shards'
//             inboxes as ordinary timers: source rows in ascending shard
//             order, each row in post order.  No merge, no sort, and the
//             drain runs in parallel.
//
// Safety: a cross-shard message produced by an event at time t carries a
// delivery time >= t + lookahead.  Every event in the window satisfies
// t >= min(next event) = W - lookahead + 1, so deliveries land strictly
// after W — no shard can have run past a message it should have seen.
// Lookahead therefore must not exceed the minimum cross-shard link latency;
// in the Pandora world that latency comes free from LinkModel/HopQuality
// (cross-shard traffic always crosses a link with nonzero delay).
//
// Determinism: within a window each shard's dispatch order is a pure
// function of its own state (the Scheduler is sequential).  The timer wheel
// fires by (when, arm order).  Drains happen at the same barriers the
// earlier sort-based engine sorted at — each barrier's batch is armed before
// the destination runs again and before anything else arms on it — and
// within one drain, rows src-ascending and each row in post order equal the
// sort's (when, src, seq) order for equal `when` (seq = the source's own
// post order).  Dispatch order is therefore (drain batch, when, src, seq),
// as it always was: a post whose delay exceeds the lookahead can share its
// `when` with a later window's post, and the earlier batch fires first.
// Which executor runs a shard, and when it finishes, never enters any key:
// threads=1 and threads=8 replay byte-identically, and both match values
// pinned on the earlier sort-based engine (tests/shard_determinism_test.cc).
// Between Run* calls the set looks the same as it always did: RunUntil arms
// every inbox before it returns, so entries posted by finished windows sit
// on destination wheels, and only coordinator posts wait in outboxes.
//
// Legacy mode: shards=1 bypasses the window machinery entirely —
// RunUntil/RunFor delegate straight to the single Scheduler and Post arms a
// plain timer — so a one-shard ShardSet is bit-identical to the pre-shard
// engine (the existing chaos/overlay goldens run unchanged through it).
//
// This header and shard_set.cc are the single sanctioned home of OS
// threading primitives inside src/ (pandora-lint thread-primitives rule):
// worker threads never touch simulation state outside the barrier protocol.
#ifndef PANDORA_SRC_RUNTIME_SHARD_SET_H_
#define PANDORA_SRC_RUNTIME_SHARD_SET_H_

// This file is on pandora-lint's THREAD_SANCTIONED_FILES list: the thread
// primitives below are the reason the ban exists everywhere else.
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/runtime/callback.h"
#include "src/runtime/scheduler.h"
#include "src/runtime/time.h"

namespace pandora {

// Coordinator-side callback run at every window barrier (multi-shard mode
// only), with all workers parked.  The cross-shard data plane uses it to
// reclaim transfer records whose consumption the barrier just made visible.
// Not an std::function member by design: the timer hot path and the lint
// rule both want fixed-size callables, and barrier tasks are long-lived
// objects anyway.
class ShardBarrierTask {
 public:
  virtual ~ShardBarrierTask() = default;
  virtual void OnShardBarrier() = 0;
};

struct ShardSetOptions {
  // Number of shards (independent Schedulers).  1 = legacy single-engine
  // mode, bit-identical to a bare Scheduler.
  int shards = 1;
  // Executors running the shards, the coordinator included; clamped to
  // [1, shards].  Shard i is statically assigned to executor i % threads
  // (executor 0 is the thread calling Run*), so a shard's frame-pool churn
  // stays on one thread's free lists and results never depend on which
  // executor finishes first.
  int threads = 1;
  // Conservative-sync lookahead.  Must be <= the minimum cross-shard
  // message latency (Post enforces per message); larger lookahead = fewer
  // barriers.
  Duration lookahead = Millis(1);
};

class ShardSet {
 public:
  explicit ShardSet(ShardSetOptions options = {});
  ~ShardSet();

  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  int shard_count() const { return static_cast<int>(shards_.size()); }
  int thread_count() const { return threads_; }
  Duration lookahead() const { return options_.lookahead; }

  Scheduler& shard(int i) { return *shards_[static_cast<size_t>(i)]; }
  const Scheduler& shard(int i) const { return *shards_[static_cast<size_t>(i)]; }
  // Legacy accessor: the facade scheduler existing single-shard callers use.
  Scheduler& scheduler() { return shard(0); }

  // All shard clocks agree at every barrier (and after every Run* call).
  Time now() const { return shard(0).now(); }

  // Queues `fire` to run on shard `dst` at simulated time `when`, stamped
  // with the source shard's next mailbox sequence number.  Must be called
  // either from code executing on shard `src` (its worker owns the outbox
  // row during a window) or from the coordinating thread between Run*
  // calls.  Cross-shard deliveries must respect the lookahead contract:
  // `when` must lie strictly beyond the current window (checked).
  // Same-shard posts arm a plain timer immediately, preserving the legacy
  // arm-order semantics shard-local traffic always had.
  void Post(int src, int dst, Time when, TimerCallback fire);

  // Queues `fire` to run on the *coordinator* at simulated time `when`, with
  // every worker parked at a barrier and every shard clock advanced exactly
  // to `when` — a deterministic stop-the-world instant.  Unlike Post, the
  // callback may therefore touch state on any shard (crash a box here, close
  // a circuit there): the barrier provides the happens-before edges in both
  // directions.  Global events are ordered by (when, submission seq); the
  // window loop never runs a shard past a pending global.  May be called
  // from the coordinator between Run* calls or from inside another global
  // callback (e.g. a fault driver re-arming its next step) — never from a
  // shard worker.  `when` must not precede the most recent window
  // (rewriting history is checked, exactly like Post).  In legacy mode this
  // is a plain shard-0 timer, preserving single-engine semantics.
  void PostGlobal(Time when, TimerCallback fire);

  // Registers a barrier task (not owned; must outlive the set or be removed).
  // No-op scaffolding in legacy mode: barriers never happen there.
  void AddBarrierTask(ShardBarrierTask* task);
  void RemoveBarrierTask(ShardBarrierTask* task);

  // Runs windows until every shard is quiescent and all mailboxes are empty.
  void RunUntilQuiescent();
  // Runs windows until the simulated clock reaches `limit`; on return every
  // shard's now() == limit (or the quiescence point advanced to limit).
  void RunUntil(Time limit);
  void RunFor(Duration d) { RunUntil(now() + d); }

  // Destroys all shards' live frames and timers (shard-index order) and
  // drops undelivered mailbox entries.  Joins nothing: workers stay parked
  // until destruction.
  void Shutdown();

  // --- Introspection ---------------------------------------------------------

  // Barrier rounds executed (0 in legacy mode).
  uint64_t windows() const { return windows_; }
  // Cross-shard mailbox entries delivered to destination wheels.
  uint64_t cross_shard_messages() const { return cross_shard_messages_; }
  // Stop-the-world callbacks executed (0 in legacy mode, where they ride the
  // shard-0 wheel and count as ordinary timers).
  uint64_t global_events_run() const { return global_events_run_; }
  // Per-shard window runs skipped because the shard provably had no event in
  // the window (idle fast path); each skip saves a RunUntil invocation.
  uint64_t idle_shard_skips() const { return idle_shard_skips_; }
  // Barriers where every outbox was empty, so no row changed hands.
  uint64_t empty_mailbox_barriers() const { return empty_mailbox_barriers_; }
  // Mailbox entries accepted but not yet drained to a destination wheel.
  size_t undrained_messages() const;
  // Whether barrier waiters spin on pause hints before parking (otherwise
  // they only yield): true exactly when there is more than one executor and
  // they all fit on the hardware threads.
  bool spins() const { return spins_; }

  // Order-sensitive digest of one shard's execution so far: folds context
  // switches, clock, and mailbox sequence state.  Equal digests across two
  // runs mean the shard dispatched the same number of slices to the same
  // simulated time with the same cross-shard traffic — the cheap half of
  // the determinism story (tests fold per-message observables on top).
  uint64_t ShardDigest(int i) const;

  // Enables every shard's trace recorder (per-shard buffers; merged on
  // export so one Perfetto timeline shows all shards as separate tracks).
  void EnableTrace(size_t max_events_per_shard);
  std::string ExportMergedTraceJson() const;
  bool ExportMergedTraceTo(const std::string& path) const;

 private:
  struct MailboxEntry {
    Time when = 0;
    TimerCallback fire;
  };

  // Per-source outbox: one row per destination, each in post order.  Written
  // only by the executor running the source shard (or the coordinator
  // between Run* calls); emptied only by the coordinator at a barrier, with
  // every executor parked, so rows need no locks.  Cache-line aligned so two
  // sources' bookkeeping never shares a line.
  struct alignas(64) Outbox {
    std::vector<std::vector<MailboxEntry>> rows;  // index = dst shard
    std::vector<Time> row_min;                    // earliest `when` per row
    uint64_t posted = 0;     // cross-shard posts ever (ShardDigest folds it)
    uint64_t collected = 0;  // of those, handed to inboxes
  };

  // Per-destination inbox: the rows the last barrier swapped in, armed by
  // the destination's executor at the start of the next window.
  struct alignas(64) Inbox {
    std::vector<std::vector<MailboxEntry>> rows;  // index = src shard
    Time min_when = kNever;                       // kNever = nothing to arm
  };

  // A stop-the-world callback and its total order key.  Kept in a min-heap
  // over (when, seq): submission order breaks time ties, so replay is exact.
  struct GlobalEvent {
    Time when = 0;
    uint64_t seq = 0;
    TimerCallback fire;
  };
  struct GlobalEventLater {
    bool operator()(const GlobalEvent& a, const GlobalEvent& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  bool legacy() const { return shards_.size() == 1; }
  Time NextGlobalTime() const {
    return global_events_.empty() ? kNever : global_events_.front().when;
  }
  // Pops and runs every global event with when <= upto (coordinator context,
  // workers parked, all shard clocks == upto or beyond their last event).
  void RunGlobalEvents(Time upto);
  void RunBarrierTasks();
  // Coordinator, executors parked: swaps every non-empty outbox row into its
  // destination's inbox and folds the row's earliest `when` into the
  // inbox's.  O(1) per row; barriers where nothing crossed a shard boundary
  // cost one counter compare per source.
  void CollectMailboxes();
  // Arms shard `dst`'s inbox on its wheel: rows src-ascending, each in post
  // order (see the determinism note above).  Runs on dst's executor.
  void DrainInbox(size_t dst);
  // Earliest next event over all shards, counting entries still waiting in
  // inboxes.  Also refreshes next_event_cache_, which the immediately
  // following RunWindow uses to skip shards with nothing due in the window.
  Time MinNextEvent();
  // Runs one window [.., window_end] across all shards, rethrowing the
  // lowest-shard process error afterwards.  With allow_idle_skip, shards
  // whose cached next event lies beyond window_end are not run at all (their
  // inboxes are still armed): they provably have nothing to dispatch
  // (cross-window traffic lands strictly after window_end by the lookahead
  // contract), so skipping changes no observable — only the skipped shard's
  // clock, which lags until the RunUntil tail or the quiescence catch-up
  // advances it.  The skip decision is a pure function of cached simulated
  // times, so it is identical across thread counts.  Global windows pass
  // false: RunGlobalEvents' contract is that every clock has reached the
  // instant before a stop-the-world callback runs.
  void RunWindow(Time window_end, bool allow_idle_skip);
  // Drains and runs executor `executor`'s shards for the current window.
  void RunExecutorShards(int executor);
  void WorkerMain(int executor);
  // Blocks until `word` no longer reads `old`: polls (spinning when spins_,
  // yielding always) for a bounded stretch, then parks.
  void AwaitChange(const std::atomic<uint32_t>& word, uint32_t old) const;
  void StopWorkers();
  void RethrowFirstShardError();
  // Folds every shard's recorder into `merged`, each track prefixed "s<i>:".
  void MergeTracesInto(TraceRecorder* merged) const;

  ShardSetOptions options_;
  int threads_ = 1;
  bool spins_ = false;
  std::vector<std::unique_ptr<Scheduler>> shards_;
  std::vector<Outbox> outboxes_;  // index = src shard
  std::vector<Inbox> inboxes_;    // index = dst shard
  // Per-shard NextEventTime snapshot taken by MinNextEvent; consumed by the
  // next RunWindow's idle-skip test.  Coordinator-written before the round
  // is published, executor-read after.
  std::vector<Time> next_event_cache_;
  std::vector<GlobalEvent> global_events_;    // min-heap (std::push/pop_heap)
  std::vector<ShardBarrierTask*> barrier_tasks_;
  std::vector<std::exception_ptr> shard_errors_;
  uint64_t next_global_seq_ = 0;
  uint64_t global_events_run_ = 0;
  uint64_t windows_ = 0;
  uint64_t cross_shard_messages_ = 0;
  uint64_t idle_shard_skips_ = 0;
  uint64_t empty_mailbox_barriers_ = 0;
  // Whether the current window may skip idle shards (published with
  // window_end_ by the round counter).
  bool skip_idle_ = false;
  // Window currently (or most recently) executed; cross-shard posts must
  // deliver strictly after it.  Published before workers are released.
  Time window_end_ = 0;
  bool shut_down_ = false;

  // --- Barrier protocol (threads > 1) -----------------------------------------
  // The coordinator publishes window_end_/skip_idle_, sets busy_ to the
  // spawned worker count and bumps round_; each worker runs its shards and
  // decrements busy_; the coordinator runs executor 0's shards meanwhile and
  // then waits for busy_ == 0.  The round bump releases and the final
  // decrement acquires everything in between, so the simulation state needs
  // no other synchronization.  stop_ is read only after a round bump.
  std::vector<std::thread> workers_;
  alignas(64) std::atomic<uint32_t> round_{0};
  alignas(64) std::atomic<uint32_t> busy_{0};
  bool stop_ = false;
};

}  // namespace pandora

#endif  // PANDORA_SRC_RUNTIME_SHARD_SET_H_
