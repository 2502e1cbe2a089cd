#include "src/runtime/timer_wheel.h"

#include <bit>

#include "src/runtime/check.h"

namespace pandora {

TimerNode* TimerWheel::AllocNode() {
  if (free_ != nullptr) {
    TimerNode* node = free_;
    free_ = node->next;
    node->next = nullptr;
    return node;
  }
  arena_.emplace_back();
  return &arena_.back();
}

void TimerWheel::Recycle(TimerNode* node) {
  ++node->generation;  // outstanding handles over this node go stale
  node->where = TimerNode::Where::kFree;
  node->fire = TimerCallback();
  node->prev = nullptr;
  node->next = free_;
  free_ = node;
}

void TimerWheel::Place(TimerNode* node) {
  // Past deadlines park in the cursor slot (fire on the next pop); the
  // node keeps its original `when`.
  const Time target = node->when < wnow_ ? wnow_ : node->when;
  const uint64_t diff = static_cast<uint64_t>(target) ^ static_cast<uint64_t>(wnow_);
  const int level = diff == 0 ? 0 : (std::bit_width(diff) - 1) / kSlotBits;
  PANDORA_DCHECK(level < kLevels);
  const int slot = static_cast<int>((target >> (level * kSlotBits)) & kSlotMask);
  node->where = TimerNode::Where::kWheel;
  node->level = static_cast<uint8_t>(level);
  node->slot = static_cast<uint8_t>(slot);
  SlotList& list = slots_[level][slot];
  node->prev = list.tail;
  node->next = nullptr;
  if (list.tail != nullptr) {
    list.tail->next = node;
  } else {
    list.head = node;
    occupied_[level][slot >> 6] |= uint64_t{1} << (slot & 63);
  }
  list.tail = node;
}

void TimerWheel::Unlink(TimerNode* node) {
  SlotList& list = slots_[node->level][node->slot];
  if (node->prev != nullptr) {
    node->prev->next = node->next;
  } else {
    list.head = node->next;
  }
  if (node->next != nullptr) {
    node->next->prev = node->prev;
  } else {
    list.tail = node->prev;
  }
  node->prev = node->next = nullptr;
  if (list.head == nullptr) {
    occupied_[node->level][node->slot >> 6] &= ~(uint64_t{1} << (node->slot & 63));
  }
}

TimerNode* TimerWheel::Add(Time when, TimerCallback fire) {
  TimerNode* node = AllocNode();
  node->when = when;
  node->fire = fire;
  Place(node);
  ++pending_;
  return node;
}

void TimerWheel::Cancel(TimerNode* node, uint64_t generation) {
  if (node == nullptr || node->generation != generation) {
    return;  // already fired, cancelled, or recycled into a new timer
  }
  if (node->where == TimerNode::Where::kWheel) {
    Unlink(node);
    --pending_;
    Recycle(node);
  }
}

TimerWheel::Due TimerWheel::Take(TimerNode* node) {
  Due due;
  due.found = true;
  due.when = node->when;
  due.fire = node->fire;
  --pending_;
  // Recycle before the caller fires: a reentrant Add may reuse this node,
  // and the generation bump keeps the old handle inert.
  Recycle(node);
  return due;
}

int TimerWheel::LowestSetSlot(int level) const {
  for (int w = 0; w < kWordsPerLevel; ++w) {
    const uint64_t bits = occupied_[level][w];
    if (bits != 0) {
      return w * 64 + std::countr_zero(bits);
    }
  }
  return -1;
}

Time TimerWheel::WindowStart(int level, int slot) const {
  const int shift = level * kSlotBits;
  // The top level's window spans every bit of Time, so nothing lies above
  // it (and a 64-bit shift would be undefined).
  const Time above =
      level + 1 == kLevels ? 0 : wnow_ & ~((Time{1} << (shift + kSlotBits)) - 1);
  return above | (static_cast<Time>(slot) << shift);
}

void TimerWheel::Cascade(int level, int slot) {
  SlotList& list = slots_[level][slot];
  TimerNode* node = list.head;
  list.head = list.tail = nullptr;
  occupied_[level][slot >> 6] &= ~(uint64_t{1} << (slot & 63));
  // Re-place in list order: within the window, equal deadlines keep their
  // arming order, and they land before any timer armed after this cascade.
  while (node != nullptr) {
    TimerNode* next = node->next;
    node->prev = node->next = nullptr;
    Place(node);
    node = next;
  }
}

TimerWheel::Due TimerWheel::PopDue(Time limit) {
  for (;;) {
    // Level 0 gives exact deadlines: every slot at or past the cursor holds
    // equal-`when` nodes in arm order.
    const int s0 = LowestSetSlot(0);
    if (s0 >= 0) {
      const Time t0 = (wnow_ & ~kSlotMask) | static_cast<Time>(s0);
      if (t0 > limit) {
        return Due{};
      }
      TimerNode* node = slots_[0][s0].head;
      Unlink(node);
      return Take(node);
    }

    // No level-0 candidates: the earliest deadline lives in the first
    // nonempty higher level (its windows start before any higher level's).
    int level = -1;
    int slot = -1;
    for (int l = 1; l < kLevels; ++l) {
      slot = LowestSetSlot(l);
      if (slot >= 0) {
        level = l;
        break;
      }
    }
    if (level < 0) {
      return Due{};
    }
    const Time window = WindowStart(level, slot);
    if (window > limit) {
      return Due{};
    }
    // Advance the cursor to the window and spread its nodes into finer
    // levels, then rescan.
    wnow_ = window;
    Cascade(level, slot);
  }
}

Time TimerWheel::NextDeadline() const {
  if (pending_ == 0) {
    return kNever;
  }
  Time best = kNever;
  // Same search order as PopDue, without mutating: the earliest deadline is in level 0's lowest occupied slot, or — with level 0 empty —
  // in the first nonempty higher level's lowest slot (all of a level's
  // occupied slots decode at or past the cursor with a shared prefix, so
  // lower absolute index means earlier window).  One slot list is walked
  // because only the cursor slot may hold past-deadline parkers whose
  // `when` undercuts the slot's decoded time.
  const int s0 = LowestSetSlot(0);
  if (s0 >= 0) {
    for (const TimerNode* node = slots_[0][s0].head; node != nullptr; node = node->next) {
      best = node->when < best ? node->when : best;
    }
  } else {
    for (int level = 1; level < kLevels; ++level) {
      const int slot = LowestSetSlot(level);
      if (slot >= 0) {
        for (const TimerNode* node = slots_[level][slot].head; node != nullptr;
             node = node->next) {
          best = node->when < best ? node->when : best;
        }
        break;
      }
    }
  }
  return best;
}

void TimerWheel::Clear() {
  for (int level = 0; level < kLevels; ++level) {
    for (int w = 0; w < kWordsPerLevel; ++w) {
      uint64_t bits = occupied_[level][w];
      occupied_[level][w] = 0;
      while (bits != 0) {
        const int slot = w * 64 + std::countr_zero(bits);
        bits &= bits - 1;
        SlotList& list = slots_[level][slot];
        TimerNode* node = list.head;
        list.head = list.tail = nullptr;
        while (node != nullptr) {
          TimerNode* next = node->next;
          node->prev = node->next = nullptr;
          Recycle(node);
          node = next;
        }
      }
    }
  }
  pending_ = 0;
}

}  // namespace pandora
