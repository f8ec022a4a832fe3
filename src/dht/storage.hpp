#pragma once
/// \file storage.hpp
/// \brief Token-append block storage (Section IV-A).
///
/// The paper stores every graph block (r̄, t̄, t̂, r̃) as a bag of
/// "one-bit tokens": a PUT never reads or rewrites remote state, it only
/// appends a unit increment for one entry of the block. This is what makes
/// Approximation B race-free — concurrent writers can only add, never
/// clobber. GETs aggregate tokens into (entry, weight) pairs and support
/// *index-side filtering*: the responder ranks entries by weight and trims
/// the reply to a top-N / byte budget, matching the paper's answer to the
/// UDP payload limit (Section V-A).

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dht/node_id.hpp"
#include "net/simulator.hpp"

namespace dharma::dht {

/// Kind of mutation a token applies.
enum class TokenKind : u8 {
  kIncrement = 0,  ///< add `delta` unit tokens to entry `entry`
  kSetPayload = 1, ///< set the block's opaque payload (type-4 r̃ blocks)
  kTouch = 2,      ///< ensure the block exists (possibly with no entries)
  /// Approximation B's conditional increment: if `entry` is absent, create
  /// it with weight 1; otherwise add `delta` (= u(τ,r), the exact-model
  /// increment). The condition is evaluated *at the replica*, so no remote
  /// read-modify-write is needed and concurrent taggers cannot double-apply
  /// the large read-dependent increment (Section IV-B).
  kIncrementIfNewB = 3,
  /// Replication path (maintenance republish): set the entry's weight to
  /// max(current, delta). Idempotent and weight-preserving — a holder pushes
  /// its aggregated view toward the current kStore-closest set without
  /// re-incrementing, so repeated republish cycles converge instead of
  /// inflating counts.
  kMergeMax = 4,
};

/// One append-only mutation of a block.
struct StoreToken {
  TokenKind kind = TokenKind::kIncrement;
  std::string entry;    ///< target entry name (kIncrement)
  u64 delta = 1;        ///< number of unit tokens bundled
  std::string payload;  ///< URI payload (kSetPayload)

  /// Canonical string covered by the content signature.
  std::string canonical() const;
};

/// Aggregated (entry, weight) pair of a block.
struct BlockEntry {
  std::string name;
  u64 weight = 0;

  bool operator==(const BlockEntry&) const = default;
};

struct GetOptions;

/// Client-visible view of a block, possibly filtered index-side.
struct BlockView {
  std::vector<BlockEntry> entries;  ///< sorted by weight desc, name asc
  std::string payload;              ///< r̃ payload (empty otherwise)
  bool truncated = false;           ///< true if filtering dropped entries
  u64 totalEntries = 0;             ///< entry count before filtering

  /// Weight of \p name, or 0.
  u64 weightOf(std::string_view name) const;

  /// Entry-wise max merge with another replica's view (convergent: token
  /// counts only grow, so the max is the freshest value). When \p topN is
  /// non-zero the merged entry list is re-trimmed to the N heaviest — two
  /// topN-filtered replica views can union to more than topN entries, and
  /// callers asked for at most that many.
  void mergeMax(const BlockView& other, usize topN = 0);

  /// Serialized size estimate used by index-side filtering.
  usize byteSize() const;

  /// Applies the index-side filtering knobs to an already weight-ranked
  /// view (top-N cap, then the byte budget) — the same trimming
  /// BlockStore::query performs on authoritative state, reused so cached
  /// copies answer a request with identical filtering semantics.
  void trim(const GetOptions& opt);
};

/// Query parameters for GET (index-side filtering knobs).
struct GetOptions {
  u32 topN = 0;       ///< keep only the N heaviest entries (0 = all)
  usize maxBytes = 0; ///< trim entries to fit this many bytes (0 = no cap)
  /// Non-authoritative read: replicas along the lookup path may answer from
  /// their record cache (STORE_CACHE copies) instead of authoritative
  /// storage, and the first cached reply completes the lookup. Cached
  /// replies never count toward the value quorum — GetResult keeps them in
  /// a separate counter, so quorum/consistency classification is unchanged.
  bool allowCached = false;
};

/// Per-node block store (Likir-style soft state: blocks carry a
/// last-touched timestamp and can be expired when left unrefreshed).
class BlockStore {
 public:
  /// Applies one token at simulated time \p now (stamps the block's
  /// last-touched time — callers on the RPC path pass sim.now(); a block
  /// stamped 0 is dropped by the first expiry sweep). Returns false on
  /// malformed tokens (empty entry name or zero delta for increments).
  bool apply(const NodeId& key, const StoreToken& token, net::SimTime now);

  /// Atomic batch apply: either every token lands or none does (the batch
  /// is validated before any token is applied). This is what makes the STORE replay
  /// dedup sound — "chunk applied" is all-or-nothing, so a deduped retry
  /// can never paper over a partially-applied batch. Empty batches are
  /// rejected.
  bool applyAll(const NodeId& key, const std::vector<StoreToken>& tokens,
                net::SimTime now);

  /// True if a block exists under \p key.
  bool has(const NodeId& key) const { return blocks_.count(key) > 0; }

  /// Aggregated, filtered view of the block, or nullopt if absent.
  std::optional<BlockView> query(const NodeId& key, const GetOptions& opt) const;

  /// Number of blocks held.
  usize size() const { return blocks_.size(); }

  /// Total tokens absorbed (diagnostics / hotspot analysis).
  u64 tokensApplied() const { return tokensApplied_; }

  /// Every key held (hotspot analysis, maintenance republish).
  std::vector<NodeId> keys() const;

  /// Last time a token touched \p key (0 if absent or never stamped).
  net::SimTime lastTouched(const NodeId& key) const;

  /// Drops every block whose last-touched time is strictly older than
  /// \p olderThan (soft-state expiry). Returns the number dropped.
  usize expire(net::SimTime olderThan);

 private:
  struct Block {
    std::map<std::string, u64> entries;
    std::string payload;
    net::SimTime lastTouchedUs = 0;
  };

  std::map<NodeId, Block> blocks_;
  u64 tokensApplied_ = 0;
};

}  // namespace dharma::dht
