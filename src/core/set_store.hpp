// Interned proposition sets (the SLRG's "duplicate sets are merged").
//
// One SetStore lives for one solve.  It keeps every sorted proposition set
// it is given once, in an arena of pages that never move, behind a dense
// 32-bit SetId; each set's hash is computed once, when it is interned.  SLRG
// and RG then key their per-set data by SetId (plain array reads) and pass
// 4-byte ids where they used to pass, hash and compare whole vectors.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "support/ids.hpp"
#include "support/paged_vec.hpp"

namespace sekitei::core {

struct SetTag {};
using SetId = Id<SetTag>;

class SetStore {
 public:
  /// Id of `set` (sorted unique), adding it on first sight.  Ids are dense
  /// from 0 in order of first sight.
  SetId intern(std::span<const PropId> set);

  /// Id of `set`, or an invalid id when it was never interned.  Never adds.
  [[nodiscard]] SetId find(std::span<const PropId> set) const;

  /// The set behind `id`; stays valid for the store's lifetime.
  [[nodiscard]] std::span<const PropId> operator[](SetId id) const {
    const Entry& e = entries_[id.index()];
    return {e.data, e.size};
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// The hash intern() and find() use: FNV-1a over the ids, then a
  /// multiplicative mix whose top bits pick the table slot.
  [[nodiscard]] static std::uint32_t hash(std::span<const PropId> set);

 private:
  struct Entry {
    const PropId* data;
    std::uint32_t size;
    std::uint32_t hash;
  };

  /// Slot of `set` in the table: the slot holding its id, or the empty slot
  /// where it would go.
  [[nodiscard]] std::size_t probe(std::span<const PropId> set, std::uint32_t h) const;
  [[nodiscard]] const PropId* copy_to_arena(std::span<const PropId> set);
  void rehash(int bits);

  PagedVec<Entry> entries_;
  // Open-addressing table of SetId values (kInvalid = empty), linear
  // probing, at most half full; 2^bits_ slots.
  PagedVec<std::uint32_t> slots_;
  int bits_ = 0;
  // Arena pages, allocated like PagedVec's: sizes double from 1 KiB up to
  // 64 KiB (a set longer than a page gets a page of its own).
  std::vector<std::unique_ptr<PropId[]>> arena_;
  PropId* arena_next_ = nullptr;
  std::size_t arena_left_ = 0;
};

}  // namespace sekitei::core
