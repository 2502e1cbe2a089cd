#include "src/overlay/sharded.h"

#include <algorithm>

#include "src/runtime/check.h"
#include "src/trace/trace.h"

namespace pandora {

ShardedOverlayMulticast::ShardedOverlayMulticast(ShardSet* shards,
                                                const OverlayTopology* topology,
                                                StripedTrees* trees, MulticastParams params,
                                                uint64_t seed)
    : shards_(shards),
      topology_(topology),
      trees_(trees),
      params_(params),
      repair_(topology, trees),
      seed_(seed) {
  const int n = topology_->receiver_count();
  const int k = trees_->stripes;
  const int s = shards_->shard_count();
  PANDORA_CHECK(n == trees_->receiver_count());
  scheds_.reserve(static_cast<size_t>(s));
  for (int i = 0; i < s; ++i) {
    scheds_.push_back(&shards_->shard(i));
  }
  if (s > 1) {
    // The access links ARE the conservative-sync slack: every cross-shard
    // hop (and drop notice) lands at depart + child's access latency, so
    // the slowest admissible lookahead is the fastest link in the city.
    for (const OverlayLink& link : topology_->links) {
      PANDORA_CHECK(link.latency >= shards_->lookahead(),
                    "overlay access latency below the ShardSet lookahead would break the "
                    "cross-shard delivery contract");
    }
  }
  emitted_by_tree_.assign(static_cast<size_t>(k), 0);
  stats_.assign(static_cast<size_t>(n), {});
  delivered_by_tree_.assign(static_cast<size_t>(n) * static_cast<size_t>(k), 0);
  last_played_seq_.assign(static_cast<size_t>(n) * static_cast<size_t>(k), -1);
  lane_busy_.assign(static_cast<size_t>(n) * static_cast<size_t>(k), 0);
  lane_service_.reserve(static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) {
    const int64_t bps =
        std::max<int64_t>(1, topology_->links[static_cast<size_t>(r)].bits_per_second);
    const int64_t us = (params_.segment_bytes * 8 * static_cast<int64_t>(kSecond) *
                            static_cast<int64_t>(k) +
                        bps - 1) /
                       bps;
    lane_service_.push_back(static_cast<Duration>(std::max<int64_t>(1, us)));
  }
  join_time_.assign(static_cast<size_t>(n), 0);
  awaiting_first_.assign(static_cast<size_t>(n), 0);
  join_log_.resize(static_cast<size_t>(s));
  for (auto& log : join_log_) {
    // Steady-state allocation-free: capacity for every owned receiver's
    // first join plus a generous churn-rejoin budget.
    log.reserve(static_cast<size_t>(n / s) + 1024);
  }
  join_hist_sites_.assign(static_cast<size_t>(s), 0);
}

void ShardedOverlayMulticast::Start(Time emit_until) {
  emit_until_ = emit_until;
  const int n = topology_->receiver_count();
  const Time now = shards_->now();
  for (int r = 0; r < n; ++r) {
    if (!trees_->absent(r)) {
      join_time_[static_cast<size_t>(r)] = now;
      awaiting_first_[static_cast<size_t>(r)] = 1;
    }
  }
  ShardedOverlayMulticast* self = this;
  scheds_[0]->AddTimer(now, TimerCallback([self] { self->Emit(); }));
}

void ShardedOverlayMulticast::Emit() {
  const int64_t seq = next_seq_++;
  const int tree = trees_->tree_of(seq);
  ++emitted_by_tree_[static_cast<size_t>(tree)];
  for (int c : trees_->root_children[static_cast<size_t>(tree)]) {
    RelayTo(tree, kOverlaySource, c, seq);
  }
  const Time next = scheds_[0]->now() + params_.segment_interval;
  if (next < emit_until_) {
    ShardedOverlayMulticast* self = this;
    scheds_[0]->AddTimer(next, TimerCallback([self] { self->Emit(); }));
  }
}

bool ShardedOverlayMulticast::LossDraw(int tree, int child, int64_t seq,
                                       double loss_rate) const {
  if (loss_rate <= 0.0) {
    return false;
  }
  // SplitMix64 finalizer over a per-copy key: the draw belongs to the edge
  // copy, not to a generator whose stream the partition could reorder.
  uint64_t x = seed_;
  x ^= 0x9e3779b97f4a7c15ull * (static_cast<uint64_t>(tree) + 1);
  x ^= 0xbf58476d1ce4e5b9ull * (static_cast<uint64_t>(child) + 1);
  x ^= 0x94d049bb133111ebull * (static_cast<uint64_t>(seq) + 1);
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53 < loss_rate;
}

void ShardedOverlayMulticast::CountDrop(int child, int kind) {
  OverlayReceiverStats& st = stats_[static_cast<size_t>(child)];
  if (kind == kDropQueue) {
    ++st.dropped_queue;
  } else if (kind == kDropLoss) {
    ++st.dropped_loss;
  } else {
    ++st.missed_absent;
  }
}

void ShardedOverlayMulticast::Drop(int ps, int cs, int child, int kind, Time arrival) {
  if (cs == ps) {
    CountDrop(child, kind);
    return;
  }
  // Across shards the drop is charged when the copy would have arrived,
  // keeping every per-receiver counter single-writer.
  ShardedOverlayMulticast* self = this;
  shards_->Post(ps, cs, arrival,
                TimerCallback([self, child, kind] { self->CountDrop(child, kind); }));
}

void ShardedOverlayMulticast::RelayTo(int tree, int parent, int child, int64_t seq) {
  const int ps = parent == kOverlaySource ? 0 : shard_of(parent);
  const int cs = shard_of(child);
  const Time now = scheds_[static_cast<size_t>(ps)]->now();
  const OverlayLink& link = topology_->links[static_cast<size_t>(child)];
  if (trees_->absent(child)) {
    // Detached between arming and relay.
    Drop(ps, cs, child, kDropAbsent, now + link.latency);
    return;
  }
  Time depart = now;
  if (parent != kOverlaySource) {
    // Serialize on the parent's per-stripe uplink lane; over-budget backlog
    // drops THIS copy and leaves the siblings' timing untouched (P5).
    Time& busy = lane_busy(tree, parent);
    const Duration service = lane_service_[static_cast<size_t>(parent)];
    const Time start = std::max(busy, now);
    if (start - now > params_.queue_budget * service) {
      Drop(ps, cs, child, kDropQueue, now + link.latency);
      return;
    }
    busy = start + service;
    depart = busy;
  }
  if (LossDraw(tree, child, seq, link.loss_rate)) {
    Drop(ps, cs, child, kDropLoss, depart + link.latency);
    return;
  }
  // Same-shard, Post arms a plain timer on this shard; across shards the
  // copy rides the mailbox.
  ShardedOverlayMulticast* self = this;
  shards_->Post(ps, cs, depart + link.latency,
                TimerCallback([self, tree, child, seq] { self->Deliver(tree, child, seq); }));
}

void ShardedOverlayMulticast::Deliver(int tree, int node, int64_t seq) {
  // Runs on `node`'s shard.
  if (trees_->absent(node)) {
    ++stats_[static_cast<size_t>(node)].missed_absent;
    return;
  }
  OverlayReceiverStats& st = stats_[static_cast<size_t>(node)];
  int64_t& last = last_played_seq_[static_cast<size_t>(node) *
                                       static_cast<size_t>(trees_->stripes) +
                                   static_cast<size_t>(tree)];
  if (seq <= last) {
    ++st.dropped_late;
    return;
  }
  last = seq;
  const int s = shard_of(node);
  const Time now = scheds_[static_cast<size_t>(s)]->now();
  ++st.delivered;
  st.last_delivery = now;
  ++delivered_by_tree_[static_cast<size_t>(node) * static_cast<size_t>(trees_->stripes) +
                       static_cast<size_t>(tree)];
  if (awaiting_first_[static_cast<size_t>(node)] != 0) {
    awaiting_first_[static_cast<size_t>(node)] = 0;
    const Duration latency = now - join_time_[static_cast<size_t>(node)];
    join_log_[static_cast<size_t>(s)].push_back({now, node, latency});
    PANDORA_TRACE_HISTOGRAM(scheds_[static_cast<size_t>(s)]->trace(),
                            join_hist_sites_[static_cast<size_t>(s)],
                            "overlay.join_to_first_segment", "us", latency);
  }
  for (int c : trees_->children[static_cast<size_t>(tree)][static_cast<size_t>(node)]) {
    RelayTo(tree, node, c, seq);
  }
}

void ShardedOverlayMulticast::Leave(int r) {
  if (!repair_.Detach(r)) {
    ++churn_skipped_;
    return;
  }
  awaiting_first_[static_cast<size_t>(r)] = 0;
  ShardedOverlayMulticast* self = this;
  shards_->PostGlobal(shards_->now() + params_.repair_delay,
                      TimerCallback([self, r] { self->RepairNow(r); }));
}

void ShardedOverlayMulticast::Join(int r) {
  std::vector<RepairAction> actions = repair_.Join(r);
  if (actions.empty()) {
    ++churn_skipped_;
    return;
  }
  join_time_[static_cast<size_t>(r)] = shards_->now();
  awaiting_first_[static_cast<size_t>(r)] = 1;
  for (const RepairAction& a : actions) {
    repair_log_.push_back({shards_->now(), a.tree, a.orphan, a.new_parent});
  }
}

void ShardedOverlayMulticast::RepairNow(int r) {
  std::vector<RepairAction> actions = repair_.Repair(r);
  repairs_ += static_cast<int64_t>(actions.size());
  for (const RepairAction& a : actions) {
    repair_log_.push_back({shards_->now(), a.tree, a.orphan, a.new_parent});
  }
}

std::vector<ShardedOverlayMulticast::JoinRecord> ShardedOverlayMulticast::MergedJoinLog() const {
  std::vector<JoinRecord> merged;
  size_t total = 0;
  for (const auto& log : join_log_) {
    total += log.size();
  }
  merged.reserve(total);
  for (const auto& log : join_log_) {
    merged.insert(merged.end(), log.begin(), log.end());
  }
  std::sort(merged.begin(), merged.end(), [](const JoinRecord& a, const JoinRecord& b) {
    return a.at != b.at ? a.at < b.at : a.receiver < b.receiver;
  });
  return merged;
}

std::vector<Duration> ShardedOverlayMulticast::JoinLatencies() const {
  const std::vector<JoinRecord> merged = MergedJoinLog();
  std::vector<Duration> latencies;
  latencies.reserve(merged.size());
  for (const JoinRecord& record : merged) {
    latencies.push_back(record.latency);
  }
  return latencies;
}

uint64_t ShardedOverlayMulticast::RunHash() const {
  uint64_t hash = kFnvOffset;
  hash = FnvMix(hash, static_cast<uint64_t>(next_seq_));
  for (int64_t e : emitted_by_tree_) {
    hash = FnvMix(hash, static_cast<uint64_t>(e));
  }
  for (const OverlayReceiverStats& st : stats_) {
    hash = FnvMix(hash, static_cast<uint64_t>(st.delivered));
    hash = FnvMix(hash, static_cast<uint64_t>(st.dropped_queue));
    hash = FnvMix(hash, static_cast<uint64_t>(st.dropped_loss));
    hash = FnvMix(hash, static_cast<uint64_t>(st.dropped_late));
    hash = FnvMix(hash, static_cast<uint64_t>(st.missed_absent));
    hash = FnvMix(hash, static_cast<uint64_t>(st.last_delivery));
  }
  for (int64_t d : delivered_by_tree_) {
    hash = FnvMix(hash, static_cast<uint64_t>(d));
  }
  // The join log in its canonical (time, receiver) order.
  for (const JoinRecord& record : MergedJoinLog()) {
    hash = FnvMix(hash, static_cast<uint64_t>(record.at));
    hash = FnvMix(hash, static_cast<uint64_t>(record.receiver));
    hash = FnvMix(hash, static_cast<uint64_t>(record.latency));
  }
  for (const OverlayRepairEvent& e : repair_log_) {
    hash = FnvMix(hash, static_cast<uint64_t>(e.at));
    hash = FnvMix(hash, static_cast<uint64_t>(e.tree));
    hash = FnvMix(hash, static_cast<uint64_t>(e.node));
    hash = FnvMix(hash, static_cast<uint64_t>(e.new_parent));
  }
  hash = FnvMix(hash, static_cast<uint64_t>(repairs_));
  hash = FnvMix(hash, static_cast<uint64_t>(churn_skipped_));
  return hash;
}

ShardedOverlayChurnDriver::ShardedOverlayChurnDriver(ShardSet* shards,
                                                     ShardedOverlayMulticast* multicast,
                                                     FaultPlan plan)
    : shards_(shards), multicast_(multicast), plan_(std::move(plan)) {
  plan_.Normalize();
}

void ShardedOverlayChurnDriver::Start() {
  const Time now = shards_->now();
  const int receivers = multicast_->trees_->receiver_count();
  for (const FaultEvent& event : plan_.events) {
    if (event.kind != FaultKind::kChurn || event.target < 0 || event.target >= receivers) {
      ++ignored_;
      continue;
    }
    ShardedOverlayMulticast* mc = multicast_;
    const int target = event.target;
    shards_->PostGlobal(std::max(now, event.at),
                        TimerCallback([mc, target] { mc->Leave(target); }));
    ++departures_;
    if (event.duration > 0) {
      shards_->PostGlobal(std::max(now, event.at + event.duration),
                          TimerCallback([mc, target] { mc->Join(target); }));
      ++rejoins_;
    }
  }
}

}  // namespace pandora
