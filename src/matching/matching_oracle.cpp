#include "matching/matching_oracle.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <queue>

namespace ps::matching {

IncrementalMatchingOracle::IncrementalMatchingOracle(
    const BipartiteGraph& graph)
    : graph_(&graph),
      active_x_(graph.num_x()),
      match_x_(static_cast<std::size_t>(graph.num_x()), -1),
      match_y_(static_cast<std::size_t>(graph.num_y()), -1),
      visit_stamp_(static_cast<std::size_t>(graph.num_y()), 0) {
  assert(graph.num_x() < kDead);
}

int IncrementalMatchingOracle::add_x(int x) {
  assert(0 <= x && x < graph_->num_x());
  if (active_x_.contains(x)) return 0;
  active_x_.insert(x);
  // A new augmenting path, if any, must start at the only new free vertex.
  ++current_stamp_;
  // Scratch shared by every oracle on this thread, so the what-if copies of
  // gain_of allocate nothing for it.
  thread_local std::vector<int> visited;
  visited.clear();
  if (try_augment_from(x, visited)) {
    ++size_;
    return 1;
  }
  // Every job a failed search visited is matched, and every job adjacent to
  // their matched slots was visited too or is already dead. An alternating
  // path that enters the set never leaves it, so it reaches no free job, now
  // or after any later add_x (augmentations elsewhere leave the set's
  // matching alone, and a new slot adds edges only from itself). Later
  // searches skip it, which leaves the path each of them finds unchanged.
  for (int y : visited) visit_stamp_[static_cast<std::size_t>(y)] = kDead;
  return 0;
}

bool IncrementalMatchingOracle::try_augment_from(int x,
                                                 std::vector<int>& visited) {
  for (int y : graph_->neighbors_of_x(x)) {
    if (visit_stamp_[static_cast<std::size_t>(y)] >= current_stamp_) continue;
    visit_stamp_[static_cast<std::size_t>(y)] = current_stamp_;
    visited.push_back(y);
    const int other = match_y_[static_cast<std::size_t>(y)];
    if (other == -1 || try_augment_from(other, visited)) {
      match_x_[static_cast<std::size_t>(x)] = y;
      match_y_[static_cast<std::size_t>(y)] = x;
      return true;
    }
  }
  return false;
}

int IncrementalMatchingOracle::gain_of(const std::vector<int>& extra_x) const {
  IncrementalMatchingOracle copy = *this;
  int gain = 0;
  for (int x : extra_x) gain += copy.add_x(x);
  return gain;
}

WeightedMatchingOracle::WeightedMatchingOracle(
    const BipartiteGraph& graph, const std::vector<double>& y_values)
    : graph_(&graph),
      y_values_(&y_values),
      active_x_(graph.num_x()),
      match_x_(static_cast<std::size_t>(graph.num_x()), -1),
      match_y_(static_cast<std::size_t>(graph.num_y()), -1) {
  assert(static_cast<int>(y_values.size()) == graph.num_y());
}

int WeightedMatchingOracle::best_reachable_free_job(
    int x, std::vector<int>* parent_slot_of_job,
    std::vector<int>* entry_job_of_slot) const {
  // Alternating BFS: slot --edge--> job --matched-edge--> slot ...
  // Collects all free jobs reachable from the free slot x; the best of them
  // is the job the new optimum saturates (Lemma 2.3.2's path endpoint).
  parent_slot_of_job->assign(static_cast<std::size_t>(graph_->num_y()), -2);
  entry_job_of_slot->assign(static_cast<std::size_t>(graph_->num_x()), -2);
  std::queue<int> slot_queue;
  slot_queue.push(x);
  (*entry_job_of_slot)[static_cast<std::size_t>(x)] = -1;  // BFS root

  int best_job = -1;
  double best_value = -1.0;
  while (!slot_queue.empty()) {
    const int s = slot_queue.front();
    slot_queue.pop();
    for (int job : graph_->neighbors_of_x(s)) {
      if ((*parent_slot_of_job)[static_cast<std::size_t>(job)] != -2) continue;
      (*parent_slot_of_job)[static_cast<std::size_t>(job)] = s;
      const int matched_slot = match_y_[static_cast<std::size_t>(job)];
      if (matched_slot == -1) {
        const double v = (*y_values_)[static_cast<std::size_t>(job)];
        if (v > best_value) {
          best_value = v;
          best_job = job;
        }
      } else if ((*entry_job_of_slot)[static_cast<std::size_t>(matched_slot)] ==
                 -2) {
        (*entry_job_of_slot)[static_cast<std::size_t>(matched_slot)] = job;
        slot_queue.push(matched_slot);
      }
    }
  }
  return best_job;
}

double WeightedMatchingOracle::add_x(int x) {
  assert(0 <= x && x < graph_->num_x());
  if (active_x_.contains(x)) return 0.0;
  active_x_.insert(x);

  std::vector<int> parent_slot_of_job, entry_job_of_slot;
  const int job = best_reachable_free_job(x, &parent_slot_of_job,
                                          &entry_job_of_slot);
  if (job == -1) return 0.0;

  // Augment along the discovered alternating path back to x, displacing the
  // previous occupant of each intermediate slot onto its discovery slot.
  int u = job;
  for (;;) {
    const int s = parent_slot_of_job[static_cast<std::size_t>(u)];
    const int displaced =
        s == x ? -1 : match_x_[static_cast<std::size_t>(s)];
    match_x_[static_cast<std::size_t>(s)] = u;
    match_y_[static_cast<std::size_t>(u)] = s;
    if (s == x) break;
    assert(displaced == entry_job_of_slot[static_cast<std::size_t>(s)]);
    u = displaced;
  }
  const double gain = (*y_values_)[static_cast<std::size_t>(job)];
  value_ += gain;
  return gain;
}

double WeightedMatchingOracle::gain_of(const std::vector<int>& extra_x) const {
  WeightedMatchingOracle copy = *this;
  double gain = 0.0;
  for (int x : extra_x) gain += copy.add_x(x);
  return gain;
}

double MatchingUtilityFunction::value(const submodular::ItemSet& s) const {
  assert(s.universe_size() == graph_->num_x());
  IncrementalMatchingOracle oracle(*graph_);
  s.for_each([&](int x) { oracle.add_x(x); });
  return oracle.size();
}

double WeightedMatchingUtilityFunction::value(
    const submodular::ItemSet& s) const {
  assert(s.universe_size() == graph_->num_x());
  // Independent of the incremental oracle: greedy over the transversal
  // matroid of schedulable job sets — process jobs by non-increasing value,
  // keep a job iff it still fits via an augmenting path inside S. Matroid
  // greedy is exactly optimal, which is what makes this a good cross-check.
  const int ny = graph_->num_y();
  std::vector<int> jobs(static_cast<std::size_t>(ny));
  std::iota(jobs.begin(), jobs.end(), 0);
  std::stable_sort(jobs.begin(), jobs.end(), [&](int a, int b) {
    return y_values_[static_cast<std::size_t>(a)] >
           y_values_[static_cast<std::size_t>(b)];
  });

  const auto adj_y = graph_->adjacency_from_y();
  std::vector<int> match_x(static_cast<std::size_t>(graph_->num_x()), -1);
  std::vector<int> match_y(static_cast<std::size_t>(ny), -1);
  std::vector<int> stamp(static_cast<std::size_t>(ny), -1);

  // Kuhn augmentation from the job side, restricted to slots in S.
  auto augment = [&](auto&& self, int job, int round) -> bool {
    for (int slot : adj_y[static_cast<std::size_t>(job)]) {
      if (!s.contains(slot)) continue;
      const int occupant = match_x[static_cast<std::size_t>(slot)];
      if (occupant != -1) continue;
      match_x[static_cast<std::size_t>(slot)] = job;
      match_y[static_cast<std::size_t>(job)] = slot;
      return true;
    }
    for (int slot : adj_y[static_cast<std::size_t>(job)]) {
      if (!s.contains(slot)) continue;
      const int occupant = match_x[static_cast<std::size_t>(slot)];
      if (occupant == -1 || occupant == job) continue;
      if (stamp[static_cast<std::size_t>(occupant)] == round) continue;
      stamp[static_cast<std::size_t>(occupant)] = round;
      if (self(self, occupant, round)) {
        match_x[static_cast<std::size_t>(slot)] = job;
        match_y[static_cast<std::size_t>(job)] = slot;
        return true;
      }
    }
    return false;
  };

  double total = 0.0;
  int round = 0;
  for (int job : jobs) {
    stamp[static_cast<std::size_t>(job)] = round;
    if (augment(augment, job, round)) {
      total += y_values_[static_cast<std::size_t>(job)];
    }
    ++round;
  }
  return total;
}

}  // namespace ps::matching
