#include "dht/storage.hpp"

#include <algorithm>
#include <cassert>

namespace dharma::dht {

std::string StoreToken::canonical() const {
  std::string s;
  s.reserve(entry.size() + payload.size() + 16);
  switch (kind) {
    case TokenKind::kIncrement: s += "inc|"; break;
    case TokenKind::kSetPayload: s += "pay|"; break;
    case TokenKind::kTouch: s += "tch|"; break;
    case TokenKind::kIncrementIfNewB: s += "icb|"; break;
    case TokenKind::kMergeMax: s += "max|"; break;
  }
  s += entry;
  s += '|';
  s += std::to_string(delta);
  s += '|';
  s += payload;
  return s;
}

u64 BlockView::weightOf(std::string_view name) const {
  for (const auto& e : entries) {
    if (e.name == name) return e.weight;
  }
  return 0;
}

void BlockView::mergeMax(const BlockView& other, usize topN) {
  std::map<std::string, u64> merged;
  for (const auto& e : entries) merged[e.name] = e.weight;
  for (const auto& e : other.entries) {
    u64& w = merged[e.name];
    w = std::max(w, e.weight);
  }
  entries.clear();
  entries.reserve(merged.size());
  for (auto& [name, w] : merged) entries.push_back(BlockEntry{name, w});
  std::sort(entries.begin(), entries.end(), [](const BlockEntry& a, const BlockEntry& b) {
    return a.weight != b.weight ? a.weight > b.weight : a.name < b.name;
  });
  // Two topN-filtered replica views can union to more than topN distinct
  // entries; re-apply the caller's cap so a "truncated" view is never larger
  // than what was asked for.
  if (topN > 0 && entries.size() > topN) {
    entries.resize(topN);
    truncated = true;
  }
  if (payload.empty()) payload = other.payload;
  truncated = truncated || other.truncated;
  totalEntries = std::max(totalEntries, other.totalEntries);
}

usize BlockView::byteSize() const {
  usize n = payload.size() + 16;
  for (const auto& e : entries) n += e.name.size() + 10;
  return n;
}

void BlockView::trim(const GetOptions& opt) {
  if (opt.topN > 0 && entries.size() > opt.topN) {
    entries.resize(opt.topN);
    truncated = true;
  }
  if (opt.maxBytes > 0) {
    usize budget = opt.maxBytes > 16 + payload.size()
                       ? opt.maxBytes - 16 - payload.size()
                       : 0;
    usize used = 0;
    usize keep = 0;
    for (; keep < entries.size(); ++keep) {
      usize cost = entries[keep].name.size() + 10;
      if (used + cost > budget) break;
      used += cost;
    }
    if (keep < entries.size()) {
      entries.resize(keep);
      truncated = true;
    }
  }
}

namespace {
/// The state-free half of BlockStore::apply's contract: a non-empty entry
/// for every entry-naming kind, and a non-zero delta where the delta is
/// always added.
bool wellFormed(const StoreToken& t) {
  switch (t.kind) {
    case TokenKind::kIncrement:
    case TokenKind::kMergeMax:
      return !t.entry.empty() && t.delta != 0;
    case TokenKind::kIncrementIfNewB:
      return !t.entry.empty();
    case TokenKind::kSetPayload:
    case TokenKind::kTouch:
      return true;
  }
  return false;
}

/// True if applying \p t leaves its entry present in the block.
bool namesEntry(const StoreToken& t) {
  return t.kind == TokenKind::kIncrement ||
         t.kind == TokenKind::kIncrementIfNewB ||
         t.kind == TokenKind::kMergeMax;
}
}  // namespace

bool BlockStore::apply(const NodeId& key, const StoreToken& token,
                       net::SimTime now) {
  if (!wellFormed(token)) return false;
  Block& b = blocks_[key];  // default-construct if absent
  switch (token.kind) {
    case TokenKind::kIncrement:
      b.entries[token.entry] += token.delta;
      tokensApplied_ += token.delta;
      break;
    case TokenKind::kSetPayload:
      b.payload = token.payload;
      ++tokensApplied_;
      break;
    case TokenKind::kTouch:
      ++tokensApplied_;
      break;
    case TokenKind::kIncrementIfNewB: {
      auto [it, inserted] = b.entries.emplace(token.entry, 1);
      if (!inserted) {
        // Present-path: delta is a real increment and must be non-zero,
        // matching kIncrement's contract.
        if (token.delta == 0) return false;
        it->second += token.delta;
      }
      tokensApplied_ += inserted ? 1 : token.delta;
      break;
    }
    case TokenKind::kMergeMax: {
      u64& w = b.entries[token.entry];
      w = std::max(w, token.delta);
      ++tokensApplied_;
      break;
    }
  }
  b.lastTouchedUs = std::max(b.lastTouchedUs, now);
  return true;
}

bool BlockStore::applyAll(const NodeId& key,
                          const std::vector<StoreToken>& tokens,
                          net::SimTime now) {
  if (tokens.empty()) return false;
  // Validate the whole batch, then apply it: a rejected batch never touches
  // the block, so atomicity needs no copy to roll back to. Past the
  // state-free checks, the one reject that depends on state is a delta-0
  // kIncrementIfNewB meeting an entry that exists, either before the batch
  // or from an earlier token of it.
  auto it = blocks_.find(key);
  for (usize i = 0; i < tokens.size(); ++i) {
    const StoreToken& t = tokens[i];
    if (!wellFormed(t)) return false;
    if (t.kind != TokenKind::kIncrementIfNewB || t.delta != 0) continue;
    if (it != blocks_.end() && it->second.entries.count(t.entry) > 0) {
      return false;
    }
    for (usize j = 0; j < i; ++j) {
      if (namesEntry(tokens[j]) && tokens[j].entry == t.entry) return false;
    }
  }
  for (const auto& t : tokens) {
    [[maybe_unused]] const bool applied = apply(key, t, now);
    assert(applied && "applyAll validation must match apply");
  }
  return true;
}

std::optional<BlockView> BlockStore::query(const NodeId& key,
                                           const GetOptions& opt) const {
  auto it = blocks_.find(key);
  if (it == blocks_.end()) return std::nullopt;
  const Block& b = it->second;

  BlockView v;
  v.payload = b.payload;
  v.totalEntries = b.entries.size();
  v.entries.reserve(b.entries.size());
  for (const auto& [name, w] : b.entries) v.entries.push_back(BlockEntry{name, w});
  // Index-side ranking: heaviest entries first so that trimming keeps the
  // most relevant tags/resources (Section V-A).
  std::sort(v.entries.begin(), v.entries.end(),
            [](const BlockEntry& a, const BlockEntry& b2) {
              return a.weight != b2.weight ? a.weight > b2.weight : a.name < b2.name;
            });
  v.trim(opt);
  return v;
}

std::vector<NodeId> BlockStore::keys() const {
  std::vector<NodeId> out;
  out.reserve(blocks_.size());
  for (const auto& [k, _] : blocks_) out.push_back(k);
  return out;
}

net::SimTime BlockStore::lastTouched(const NodeId& key) const {
  auto it = blocks_.find(key);
  return it == blocks_.end() ? 0 : it->second.lastTouchedUs;
}

usize BlockStore::expire(net::SimTime olderThan) {
  usize dropped = 0;
  for (auto it = blocks_.begin(); it != blocks_.end();) {
    if (it->second.lastTouchedUs < olderThan) {
      it = blocks_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

}  // namespace dharma::dht
