#include "src/runtime/shard_set.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <exception>
#include <utility>

#include "src/runtime/check.h"
#include "src/trace/trace.h"

namespace pandora {

ShardSet::ShardSet(ShardSetOptions options) : options_(options) {
  PANDORA_CHECK(options_.shards >= 1, "a ShardSet needs at least one shard");
  PANDORA_CHECK(options_.lookahead >= 1,
                "conservative sync needs at least one microsecond of lookahead");
  threads_ = std::clamp(options_.threads, 1, options_.shards);
  shards_.reserve(static_cast<size_t>(options_.shards));
  for (int i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Scheduler>());
  }
  outboxes_.resize(shards_.size());
  inboxes_.resize(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    outboxes_[i].rows.resize(shards_.size());
    outboxes_[i].row_min.assign(shards_.size(), kNever);
    inboxes_[i].rows.resize(shards_.size());
  }
  shard_errors_.resize(shards_.size());
  next_event_cache_.assign(shards_.size(), kNever);
  // Spinning pays only while every executor has a hardware thread to itself;
  // oversubscribed, a spinning waiter steals the core the one it waits for
  // needs.  hardware_concurrency() may report 0 (unknown): then never spin.
  const unsigned hardware_threads = std::thread::hardware_concurrency();
  spins_ = threads_ > 1 && static_cast<unsigned>(threads_) <= hardware_threads;
  // Executor 0 is the coordinator itself.
  if (threads_ > 1) {
    workers_.reserve(static_cast<size_t>(threads_ - 1));
    for (int w = 1; w < threads_; ++w) {
      workers_.emplace_back([this, w] { WorkerMain(w); });
    }
  }
}

ShardSet::~ShardSet() {
  StopWorkers();
  Shutdown();
}

void ShardSet::Post(int src, int dst, Time when, TimerCallback fire) {
  PANDORA_CHECK(src >= 0 && src < shard_count(), "Post: source shard out of range");
  PANDORA_CHECK(dst >= 0 && dst < shard_count(), "Post: destination shard out of range");
  if (src == dst) {
    // Shard-local: arm directly, keeping the legacy arm-order FIFO semantics
    // (and, with shards=1, bit-identical behaviour to a bare Scheduler).
    shards_[static_cast<size_t>(dst)]->AddTimer(when, fire);
    return;
  }
  // Lookahead contract: the destination may already have run up to
  // window_end_, so a delivery at or before it would rewrite history.
  PANDORA_CHECK(when > window_end_,
                "cross-shard Post inside the conservative window (latency < lookahead?)");
  PANDORA_CHECK(when >= shards_[static_cast<size_t>(src)]->now(),
                "cross-shard Post into the source shard's past");
  Outbox& outbox = outboxes_[static_cast<size_t>(src)];
  const size_t d = static_cast<size_t>(dst);
  MailboxEntry entry;
  entry.when = when;
  entry.fire = fire;
  outbox.rows[d].push_back(entry);
  outbox.row_min[d] = std::min(outbox.row_min[d], when);
  ++outbox.posted;
}

void ShardSet::PostGlobal(Time when, TimerCallback fire) {
  if (legacy()) {
    // One shard: a stop-the-world instant is just a timer on the only world
    // there is.  Bit-identical to the pre-shard engine by construction.
    shards_[0]->AddTimer(when, fire);
    return;
  }
  PANDORA_CHECK(when >= window_end_,
                "PostGlobal into an already-executed window would rewrite history");
  GlobalEvent event;
  event.when = when;
  event.seq = next_global_seq_++;
  event.fire = fire;
  global_events_.push_back(event);
  std::push_heap(global_events_.begin(), global_events_.end(), GlobalEventLater());
}

void ShardSet::AddBarrierTask(ShardBarrierTask* task) {
  PANDORA_CHECK(task != nullptr);
  barrier_tasks_.push_back(task);
}

void ShardSet::RemoveBarrierTask(ShardBarrierTask* task) {
  for (size_t i = 0; i < barrier_tasks_.size(); ++i) {
    if (barrier_tasks_[i] == task) {
      barrier_tasks_.erase(barrier_tasks_.begin() + static_cast<ptrdiff_t>(i));
      return;
    }
  }
}

void ShardSet::RunGlobalEvents(Time upto) {
  while (!global_events_.empty() && global_events_.front().when <= upto) {
    std::pop_heap(global_events_.begin(), global_events_.end(), GlobalEventLater());
    GlobalEvent event = global_events_.back();
    global_events_.pop_back();
    // May PostGlobal again (heap push mid-loop is fine) and may mutate any
    // shard: every worker is parked and every clock has reached event.when.
    event.fire();
    ++global_events_run_;
  }
}

void ShardSet::RunBarrierTasks() {
  for (ShardBarrierTask* task : barrier_tasks_) {
    task->OnShardBarrier();
  }
}

void ShardSet::CollectMailboxes() {
  const size_t n = shards_.size();
  uint64_t moved = 0;
  for (size_t src = 0; src < n; ++src) {
    Outbox& outbox = outboxes_[src];
    if (outbox.posted == outbox.collected) {
      continue;
    }
    moved += outbox.posted - outbox.collected;
    outbox.collected = outbox.posted;
    for (size_t dst = 0; dst < n; ++dst) {
      std::vector<MailboxEntry>& row = outbox.rows[dst];
      if (row.empty()) {
        continue;
      }
      Inbox& inbox = inboxes_[dst];
      // The inbox row was armed (and cleared, capacity kept) in the window
      // since the last collect, so the swap hands the outbox an empty row
      // with capacity: steady-state traffic allocates nothing.
      PANDORA_DCHECK(inbox.rows[src].empty(), "inbox row collected twice");
      inbox.rows[src].swap(row);
      inbox.min_when = std::min(inbox.min_when, outbox.row_min[dst]);
      outbox.row_min[dst] = kNever;
    }
  }
  if (moved == 0) {
    ++empty_mailbox_barriers_;
  }
  cross_shard_messages_ += moved;
}

void ShardSet::DrainInbox(size_t dst) {
  Inbox& inbox = inboxes_[dst];
  if (inbox.min_when == kNever) {
    return;
  }
  Scheduler& shard = *shards_[dst];
  for (std::vector<MailboxEntry>& row : inbox.rows) {
    for (const MailboxEntry& entry : row) {
      shard.AddTimer(entry.when, entry.fire);
    }
    row.clear();
  }
  inbox.min_when = kNever;
}

Time ShardSet::MinNextEvent() {
  Time t = kNever;
  for (size_t i = 0; i < shards_.size(); ++i) {
    // Inbox entries lie beyond every clock (the lookahead contract), so the
    // min equals what the shard would report with them already armed.
    const Time next = std::min(shards_[i]->NextEventTime(), inboxes_[i].min_when);
    next_event_cache_[i] = next;
    t = next < t ? next : t;
  }
  return t;
}

void ShardSet::RunExecutorShards(int executor) {
  // Static assignment: shard i always runs on executor i % threads, so
  // results cannot depend on which executor finishes first and each shard's
  // frame churn stays on one thread's FramePool free lists.
  for (int i = executor; i < shard_count(); i += threads_) {
    const size_t s = static_cast<size_t>(i);
    DrainInbox(s);
    // Skipped shards provably have nothing due in the window; see RunWindow.
    if (!skip_idle_ || next_event_cache_[s] <= window_end_) {
      try {
        shards_[s]->RunUntil(window_end_);
      } catch (...) {
        shard_errors_[s] = std::current_exception();
      }
    }
  }
}

void ShardSet::AwaitChange(const std::atomic<uint32_t>& word, uint32_t old) const {
  // Poll for a bounded stretch, then park: a window's work is tens to
  // hundreds of microseconds, so a waiter that has not seen the change within
  // kPollBudget is better off asleep.  Every poll round ends in a yield,
  // because the executor being waited for may be queued on this very core —
  // always possible when the set oversubscribes the machine, and on a machine
  // shared with other processes too.  Only when every executor has a hardware
  // thread of its own does a round also spin on pause hints, which sees the
  // change within nanoseconds.
  constexpr auto kPollBudget = std::chrono::microseconds(200);
  const int polls_per_round = spins_ ? 64 : 1;
  const auto deadline = std::chrono::steady_clock::now() + kPollBudget;
  do {
    for (int i = 0; i < polls_per_round; ++i) {
      if (word.load(std::memory_order_acquire) != old) {
        return;
      }
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#elif defined(__aarch64__)
      asm volatile("yield");
#endif
    }
    std::this_thread::yield();
  } while (std::chrono::steady_clock::now() < deadline);
  while (word.load(std::memory_order_acquire) == old) {
    word.wait(old, std::memory_order_acquire);
  }
}

void ShardSet::RunWindow(Time window_end, bool allow_idle_skip) {
  ++windows_;
  if (allow_idle_skip) {
    for (size_t i = 0; i < shards_.size(); ++i) {
      if (next_event_cache_[i] > window_end) {
        ++idle_shard_skips_;
      }
    }
  }
  window_end_ = window_end;
  skip_idle_ = allow_idle_skip;
  if (workers_.empty()) {
    RunExecutorShards(0);
  } else {
    busy_.store(static_cast<uint32_t>(workers_.size()), std::memory_order_relaxed);
    // seq_cst: a parking worker registers as a waiter before re-reading
    // round_, and notify_all skips the wake when it sees no waiter.
    round_.fetch_add(1);
    round_.notify_all();
    RunExecutorShards(0);
    uint32_t busy;
    while ((busy = busy_.load(std::memory_order_acquire)) != 0) {
      AwaitChange(busy_, busy);
    }
  }
  RethrowFirstShardError();
}

void ShardSet::WorkerMain(int executor) {
  uint32_t seen_round = 0;
  for (;;) {
    AwaitChange(round_, seen_round);
    seen_round = round_.load(std::memory_order_acquire);
    if (stop_) {
      return;
    }
    RunExecutorShards(executor);
    if (busy_.fetch_sub(1) == 1) {
      busy_.notify_all();
    }
  }
}

void ShardSet::RethrowFirstShardError() {
  std::exception_ptr first;
  // Lowest shard index wins, every time: which error escapes must not depend
  // on thread timing.  Later shards' errors are dropped, matching a single
  // Scheduler run that stops at its first escaping exception.
  for (std::exception_ptr& err : shard_errors_) {
    if (err != nullptr) {
      if (first == nullptr) {
        first = err;
      }
      err = nullptr;
    }
  }
  if (first != nullptr) {
    std::rethrow_exception(first);
  }
}

void ShardSet::RunUntilQuiescent() {
  if (legacy()) {
    shards_[0]->RunUntilQuiescent();
    return;
  }
  for (;;) {
    CollectMailboxes();
    const Time t_min = MinNextEvent();
    const Time g = NextGlobalTime();
    if (t_min == kNever && g == kNever) {
      // Idle-skipped shards' clocks may lag the last window; catch them up so
      // every clock (and so now()) reports the same quiescence point a
      // non-skipping run would.  No events fire: everything is quiescent.
      for (auto& shard : shards_) {
        shard->RunUntil(window_end_);
      }
      return;
    }
    if (g <= t_min) {
      // Stop-the-world instant: advance every shard through g (shard events
      // at g dispatch first, on their own shards), then run the due globals
      // on this thread with the workers parked.
      RunWindow(g, /*allow_idle_skip=*/false);
      RunBarrierTasks();
      RunGlobalEvents(g);
      continue;
    }
    Time window_end = t_min + options_.lookahead - 1;
    if (window_end < t_min) {  // arithmetic overflow near kNever
      window_end = t_min;
    }
    if (window_end >= g) {  // never run a shard past a pending global
      window_end = g - 1;
    }
    RunWindow(window_end, /*allow_idle_skip=*/true);
    RunBarrierTasks();
  }
}

void ShardSet::RunUntil(Time limit) {
  if (legacy()) {
    shards_[0]->RunUntil(limit);
    return;
  }
  for (;;) {
    CollectMailboxes();
    const Time t_min = MinNextEvent();
    const Time g = NextGlobalTime();
    const Time next = g < t_min ? g : t_min;
    if (next > limit) {
      break;
    }
    if (g <= t_min) {
      RunWindow(g, /*allow_idle_skip=*/false);
      RunBarrierTasks();
      RunGlobalEvents(g);
      continue;
    }
    Time window_end = t_min + options_.lookahead - 1;
    if (window_end > limit || window_end < t_min) {
      window_end = limit;
    }
    if (window_end >= g) {
      window_end = g - 1;
    }
    RunWindow(window_end, /*allow_idle_skip=*/true);
    RunBarrierTasks();
  }
  // Nothing left at or before `limit`: arm what the last barrier collected
  // and advance every clock to the limit, so callers see the wheels and the
  // now() a bare Scheduler would report.  Inline on the coordinator — no
  // events fire, the barrier already synchronised.
  for (size_t i = 0; i < shards_.size(); ++i) {
    DrainInbox(i);
    shards_[i]->RunUntil(limit);
  }
  window_end_ = limit > window_end_ ? limit : window_end_;
}

void ShardSet::Shutdown() {
  if (shut_down_) {
    return;
  }
  shut_down_ = true;
  // Undelivered mailbox entries die with the world; their captures are
  // trivially-copyable by TimerCallback's contract, so dropping is safe.
  for (Outbox& outbox : outboxes_) {
    for (std::vector<MailboxEntry>& row : outbox.rows) {
      row.clear();
    }
    std::fill(outbox.row_min.begin(), outbox.row_min.end(), kNever);
    outbox.collected = outbox.posted;
  }
  global_events_.clear();
  for (auto& shard : shards_) {
    shard->Shutdown();
  }
}

size_t ShardSet::undrained_messages() const {
  // Inboxes are always empty here: every window arms them, and RunUntil arms
  // the last collect before it returns.
  size_t n = 0;
  for (const Outbox& outbox : outboxes_) {
    n += static_cast<size_t>(outbox.posted - outbox.collected);
  }
  return n;
}

uint64_t ShardSet::ShardDigest(int i) const {
  PANDORA_CHECK(i >= 0 && i < shard_count());
  const Scheduler& shard = *shards_[static_cast<size_t>(i)];
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  const auto mix = [&h](uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (byte * 8)) & 0xff;
      h *= 1099511628211ull;  // FNV prime
    }
  };
  mix(shard.context_switches());
  mix(static_cast<uint64_t>(shard.now()));
  mix(shard.pending_timer_count());
  mix(shard.live_process_count());
  mix(outboxes_[static_cast<size_t>(i)].posted);
  return h;
}

void ShardSet::EnableTrace(size_t max_events_per_shard) {
  for (auto& shard : shards_) {
    shard->trace()->Enable(max_events_per_shard);
  }
}

void ShardSet::MergeTracesInto(TraceRecorder* merged) const {
  for (size_t i = 0; i < shards_.size(); ++i) {
    merged->MergeFrom(*shards_[i]->trace(), "s" + std::to_string(i) + ":");
  }
}

std::string ShardSet::ExportMergedTraceJson() const {
  TraceRecorder merged;
  MergeTracesInto(&merged);
  return merged.ExportJson();
}

bool ShardSet::ExportMergedTraceTo(const std::string& path) const {
  TraceRecorder merged;
  MergeTracesInto(&merged);
  return merged.ExportJsonTo(path);
}

void ShardSet::StopWorkers() {
  if (workers_.empty()) {
    return;
  }
  stop_ = true;
  round_.fetch_add(1);
  round_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  workers_.clear();
}

}  // namespace pandora
