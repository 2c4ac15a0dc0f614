#include "core/set_store.hpp"

#include <algorithm>

namespace sekitei::core {

namespace {
constexpr std::size_t kArenaFirst = 1024 / sizeof(PropId);
constexpr std::size_t kArenaMax = 65536 / sizeof(PropId);
constexpr int kFirstBits = 6;  // 64 slots
}  // namespace

std::uint32_t SetStore::hash(std::span<const PropId> set) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const PropId p : set) {
    h ^= p.value;
    h *= 1099511628211ULL;
  }
  // FNV's low bits depend only on the ids' low bits; the mix's top bits
  // depend on every bit, and the table indexes with the top bits.
  return static_cast<std::uint32_t>((h * 0x9E3779B97F4A7C15ULL) >> 32);
}

std::size_t SetStore::probe(std::span<const PropId> set, std::uint32_t h) const {
  const std::size_t mask = (std::size_t{1} << bits_) - 1;
  for (std::size_t s = h >> (32 - bits_);; s = (s + 1) & mask) {
    const std::uint32_t id = slots_[s];
    if (id == SetId::kInvalid) return s;
    const Entry& e = entries_[id];
    if (e.hash == h && e.size == set.size() && std::equal(set.begin(), set.end(), e.data)) {
      return s;
    }
  }
}

SetId SetStore::find(std::span<const PropId> set) const {
  if (bits_ == 0) return SetId{};
  return SetId(slots_[probe(set, hash(set))]);
}

SetId SetStore::intern(std::span<const PropId> set) {
  if (bits_ == 0) rehash(kFirstBits);
  const std::uint32_t h = hash(set);
  const std::size_t s = probe(set, h);
  if (slots_[s] != SetId::kInvalid) return SetId(slots_[s]);
  const auto id = static_cast<std::uint32_t>(entries_.size());
  entries_.push_back(Entry{copy_to_arena(set), static_cast<std::uint32_t>(set.size()), h});
  slots_[s] = id;
  if (2 * entries_.size() > (std::size_t{1} << bits_)) rehash(bits_ + 1);
  return SetId(id);
}

const PropId* SetStore::copy_to_arena(std::span<const PropId> set) {
  if (set.empty()) return nullptr;
  if (set.size() > arena_left_) {
    const std::size_t doublings = std::min<std::size_t>(arena_.size(), 8);
    const std::size_t page = std::min(kArenaFirst << doublings, kArenaMax);
    arena_left_ = std::max(page, set.size());
    arena_.push_back(std::make_unique_for_overwrite<PropId[]>(arena_left_));
    arena_next_ = arena_.back().get();
  }
  PropId* out = arena_next_;
  std::copy(set.begin(), set.end(), out);
  arena_next_ += set.size();
  arena_left_ -= set.size();
  return out;
}

void SetStore::rehash(int bits) {
  PagedVec<std::uint32_t> slots;
  slots.grow_to(std::size_t{1} << bits, SetId::kInvalid);
  const std::size_t mask = (std::size_t{1} << bits) - 1;
  for (std::size_t id = 0; id < entries_.size(); ++id) {
    std::size_t s = entries_[id].hash >> (32 - bits);
    while (slots[s] != SetId::kInvalid) s = (s + 1) & mask;
    slots[s] = static_cast<std::uint32_t>(id);
  }
  slots_ = std::move(slots);
  bits_ = bits;
}

}  // namespace sekitei::core
