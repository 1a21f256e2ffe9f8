#include "fivegcore/rules.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/assert.hpp"

namespace sixg::core5g {

namespace {
/// The table's order: precedence, then rule id.
bool precedes(const PdrRule& a, const PdrRule& b) {
  if (a.precedence != b.precedence) return a.precedence < b.precedence;
  return a.id < b.id;
}
}  // namespace

RuleTable::RuleTable(Mode mode, std::uint32_t hot_capacity, CostModel costs)
    : mode_(mode), hot_capacity_(hot_capacity), costs_(costs) {
  SIXG_ASSERT(hot_capacity_ > 0, "hot cache needs capacity");
}

Duration RuleTable::add_rule(const PdrRule& rule) {
  rules_.insert(std::lower_bound(rules_.begin(), rules_.end(), rule, precedes),
                rule);
  index_stale_ = true;
  return costs_.update_base +
         costs_.per_rule_update * std::int64_t(rules_.size());
}

std::optional<Duration> RuleTable::remove_rule(std::uint32_t id) {
  const auto it = std::find_if(rules_.begin(), rules_.end(),
                               [id](const PdrRule& r) { return r.id == id; });
  if (it == rules_.end()) return std::nullopt;
  const std::uint64_t key = it->flow_key;
  rules_.erase(it);
  index_stale_ = true;
  hot_.erase(std::remove(hot_.begin(), hot_.end(), key), hot_.end());
  return costs_.update_base +
         costs_.per_rule_update * std::int64_t(rules_.size());
}

std::optional<std::size_t> RuleTable::position(std::uint64_t flow_key) const {
  if (index_stale_) {
    index_.clear();
    index_.reserve(rules_.size());
    for (std::size_t i = 0; i < rules_.size(); ++i)
      index_.try_emplace(rules_[i].flow_key, std::uint32_t(i));
    index_stale_ = false;
  }
  const auto it = index_.find(flow_key);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::size_t> RuleTable::hot_position(
    std::uint64_t flow_key) const {
  const auto it = std::find(hot_.begin(), hot_.end(), flow_key);
  if (it == hot_.end()) return std::nullopt;
  return std::size_t(it - hot_.begin());
}

void RuleTable::touch_hot(std::uint64_t flow_key) {
  hot_.erase(std::remove(hot_.begin(), hot_.end(), flow_key), hot_.end());
  hot_.insert(hot_.begin(), flow_key);
  if (hot_.size() > hot_capacity_) hot_.resize(hot_capacity_);
}

LookupOutcome RuleTable::lookup(std::uint64_t flow_key) {
  LookupOutcome out;
  const auto pos = position(flow_key);
  if (pos) ++rules_[*pos].hits;

  if (mode_ == Mode::kContextAware && hot_position(flow_key)) {
    // Hot cache hit: flat cost regardless of table size or position.
    touch_hot(flow_key);
    out.matched = true;
    out.scanned = 1;
    out.latency = costs_.hot_hit;
    return out;
  }

  // A precedence-order scan would stop at the match or run off the end.
  out.matched = pos.has_value();
  out.scanned = std::uint32_t(pos ? *pos + 1 : rules_.size());
  out.latency =
      costs_.lookup_base + costs_.per_rule * std::int64_t(out.scanned);
  if (mode_ == Mode::kContextAware && out.matched) {
    // Promote on miss so active flows converge into the cache.
    touch_hot(flow_key);
    out.latency += costs_.hot_update;
  }
  return out;
}

std::optional<Duration> RuleTable::update_rule(std::uint32_t id,
                                               int new_precedence) {
  const auto it = std::find_if(rules_.begin(), rules_.end(),
                               [id](const PdrRule& r) { return r.id == id; });
  if (it == rules_.end()) return std::nullopt;
  // Prioritised flow: the QER change applies in the hot cache, no reorg.
  const bool hot =
      mode_ == Mode::kContextAware && hot_position(it->flow_key).has_value();

  PdrRule moved = *it;
  moved.precedence = new_precedence;
  // The slot add_rule would pick once the rule is taken out is its
  // current one iff its neighbours still bracket it.
  const bool same_slot =
      (it == rules_.begin() || precedes(*(it - 1), moved)) &&
      (it + 1 == rules_.end() || !precedes(*(it + 1), moved));
  if (same_slot) {
    it->precedence = new_precedence;
  } else {
    rules_.erase(it);
    (void)add_rule(moved);
  }
  if (hot) return costs_.hot_update;
  return costs_.update_base +
         costs_.per_rule_update * std::int64_t(rules_.size());
}

void RuleTable::prioritise_flow(std::uint64_t flow_key) {
  if (mode_ != Mode::kContextAware) return;
  touch_hot(flow_key);
}

std::size_t RuleTable::prioritised_ue_count() const {
  std::unordered_set<std::uint32_t> ues;
  for (std::uint64_t key : hot_) {
    if (const auto pos = position(key)) ues.insert(rules_[*pos].ue_id);
  }
  return ues.size();
}

}  // namespace sixg::core5g
