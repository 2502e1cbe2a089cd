// Hierarchical timing wheel over the simulated microsecond clock.
//
// O(1) insert and O(1) cancel-unlink on every level, with nodes drawn from
// an internal free list, so the steady-state timer path performs no
// allocation at all and a cancelled timer (every Alt timeout that lost its
// race) leaves at once instead of lingering until its deadline.
//
// Geometry: eight levels of 256 slots, 8 bits of deadline per level, so
// the wheel spans every non-negative `Time` (2^63 us) and every timer lives
// on it: there is no overflow structure.  Level 0 resolves single
// microseconds around the cursor; level 7 resolves 2^56-us windows.  Each
// level costs 4 KB of slot heads, 32 KB in all.
//
// A node's level is chosen by the most significant bit in which its
// deadline differs from the wheel cursor `wnow_` (an XOR prefix match, the
// scheme of Varghese & Lauck's hierarchical wheels, SOSP 1987).  This keeps
// the FIFO guarantee the scheduler needs: within one level-0 slot all nodes
// share a deadline and are appended in arm order; a cascade re-places
// a window's nodes in list order before any new timer can land there, so
// equal-deadline timers always fire in the order they were armed.
//
// Deadlines already in the past are placed in the cursor slot and fire on
// the next pop with their original `when` (the scheduler never moves its
// clock backwards).  No current caller arms a past timer; see DESIGN.md
// section 10 for the ordering fine print.
#ifndef PANDORA_SRC_RUNTIME_TIMER_WHEEL_H_
#define PANDORA_SRC_RUNTIME_TIMER_WHEEL_H_

#include <cstddef>
#include <cstdint>
#include <deque>

#include "src/runtime/callback.h"
#include "src/runtime/time.h"

namespace pandora {

// One pending (or recycled) timer.  Nodes live in the wheel's arena and are
// reused; `generation` ticks every time a node is invalidated so that a
// stale TimerHandle over a recycled node is a safe no-op.
struct TimerNode {
  Time when = 0;
  uint64_t generation = 0;
  TimerCallback fire;
  TimerNode* prev = nullptr;
  TimerNode* next = nullptr;
  enum class Where : uint8_t {
    kFree,   // on the free list
    kWheel,  // linked into slots_[level][slot]
  };
  Where where = Where::kFree;
  uint8_t level = 0;
  uint8_t slot = 0;
};

class TimerWheel {
 public:
  // A due timer, detached from the wheel.  The node is recycled before the
  // caller runs `fire`, so a callback may re-arm timers reentrantly.
  struct Due {
    bool found = false;
    Time when = 0;
    TimerCallback fire;
  };

  TimerWheel() = default;
  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  // Arms a timer; the returned node plus its current generation form a
  // cancellation handle.
  TimerNode* Add(Time when, TimerCallback fire);

  // O(1): unlink and recycle.  Stale generations are ignored.
  void Cancel(TimerNode* node, uint64_t generation);

  bool IsActive(const TimerNode* node, uint64_t generation) const {
    return node != nullptr && node->generation == generation;
  }

  // Detaches and returns the earliest pending timer with deadline <= limit,
  // in (when, arm order); {found=false} if none qualifies.  May advance the
  // internal cursor up to `limit` while cascading.
  Due PopDue(Time limit);

  // Drops every pending timer (scheduler shutdown).
  void Clear();

  // Earliest pending deadline without detaching anything (kNever if empty).
  // The sharded scheduler's conservative-sync loop peeks every shard's
  // horizon each window, so this must not mutate the cursor.  A
  // past-deadline node parked in the cursor slot reports its original
  // `when`; callers clamp against their own clock.
  Time NextDeadline() const;

  std::size_t pending_count() const { return pending_; }

 private:
  static constexpr int kLevels = 8;
  static constexpr int kSlotBits = 8;
  static constexpr int kSlots = 1 << kSlotBits;
  static constexpr Time kSlotMask = kSlots - 1;
  static constexpr int kWordsPerLevel = kSlots / 64;

  struct SlotList {
    TimerNode* head = nullptr;
    TimerNode* tail = nullptr;
  };

  TimerNode* AllocNode();
  void Recycle(TimerNode* node);
  void Place(TimerNode* node);
  void Unlink(TimerNode* node);
  Due Take(TimerNode* node);
  int LowestSetSlot(int level) const;
  Time WindowStart(int level, int slot) const;
  void Cascade(int level, int slot);

  Time wnow_ = 0;  // wheel cursor: <= every pending deadline and <= the clock
  std::size_t pending_ = 0;
  SlotList slots_[kLevels][kSlots];
  uint64_t occupied_[kLevels][kWordsPerLevel] = {};
  // Node storage: deque for stable addresses; the free list makes growth a
  // warmup-only event.
  std::deque<TimerNode> arena_;
  TimerNode* free_ = nullptr;
};

}  // namespace pandora

#endif  // PANDORA_SRC_RUNTIME_TIMER_WHEEL_H_
