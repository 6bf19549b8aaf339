// Tournament (loser) tree: the one k-way selection structure, behind the
// LMM group merge, the forecasting multiway merge and replacement
// selection. Each internal node holds the entry that lost its match by
// value, as {record, tag, source}, so a replacement replays one
// leaf-to-root path with one comparison per level, no indirection and no
// branch on a match's outcome.
//
// Entries are ordered by (tag, record, source index). Merges leave live
// sources at tag 0; exhausted sources and the padding leaves up to a power
// of two carry kDeadTag. Replacement selection tags entries with their run,
// and a comparator invocable as cmp(tag, a, b) orders each tag its own way.
#pragma once

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>
#include <type_traits>
#include <vector>

#include "pdm/record.h"

namespace pdm {

template <Record R, class Cmp = std::less<R>>
class LoserTree {
 public:
  /// Tag of an exhausted source; live tags must stay below it.
  static constexpr u32 kDeadTag = ~u32{0};

  explicit LoserTree(usize k, Cmp cmp = {})
      : k_(k), cap_(std::bit_ceil(std::max<usize>(k, 2))), cmp_(cmp),
        nodes_(cap_, Node{R{}, kDeadTag, 0}) {
    PDM_CHECK(cap_ - 1 <= kDeadTag, "fan-in out of range");
  }

  /// Sets the first entry of source i. Call for every live source, then
  /// build().
  void set_initial(usize i, const R& v, u32 tag = 0) {
    PDM_CHECK(i < k_, "source out of range");
    nodes_[i] = Node{v, tag, static_cast<u32>(i)};  // leaf i until build()
  }

  /// Plays the initial tournament bottom-up.
  void build() {
    std::vector<Node> win(2 * cap_);  // win[n]: winner below node n
    std::copy(nodes_.begin(), nodes_.end(), win.begin() + cap_);
    for (usize n = cap_ - 1; n >= 1; --n) {
      match(win[2 * n], win[2 * n + 1], win[n], nodes_[n]);
    }
    nodes_[0] = win[1];
  }

  bool empty() const { return nodes_[0].tag == kDeadTag; }

  /// Source, record and tag of the current minimum.
  usize min_source() const { return nodes_[0].src; }
  const R& min_value() const { return nodes_[0].rec; }
  u32 min_tag() const { return nodes_[0].tag; }

  /// Replaces the minimum with the next entry from the same source.
  void replace_min(const R& v, u32 tag = 0) {
    replay(Node{v, tag, nodes_[0].src});
  }

  /// Marks the minimum's source as exhausted.
  void exhaust_min() { replay(Node{nodes_[0].rec, kDeadTag, nodes_[0].src}); }

 private:
  struct Node {
    R rec;
    u32 tag;
    u32 src;
  };

  bool less(const Node& a, const Node& b) const {
    bool rec_less = false;
    if constexpr (std::is_invocable_v<const Cmp&, u32, const R&, const R&>) {
      rec_less = cmp_(a.tag, a.rec, b.rec);
    } else {
      rec_less = cmp_(a.rec, b.rec);
    }
    return (a.tag < b.tag) | ((a.tag == b.tag) & rec_less);
  }

  // c ? b : a, blended word by word under a mask.
  static Node pick(bool c, const Node& a, const Node& b) {
    using Word = std::conditional_t<sizeof(Node) % 8 == 0, u64, u32>;
    const Word mask = Word{0} - static_cast<Word>(c);
    Node out{};
    for (usize i = 0; i < sizeof(Node); i += sizeof(Word)) {
      Word x = 0, y = 0;
      std::memcpy(&x, reinterpret_cast<const char*>(&a) + i, sizeof(Word));
      std::memcpy(&y, reinterpret_cast<const char*>(&b) + i, sizeof(Word));
      x ^= (x ^ y) & mask;
      std::memcpy(reinterpret_cast<char*>(&out) + i, &x, sizeof(Word));
    }
    return out;
  }

  // The right entry wins only when strictly smaller, so ties go to the
  // left subtree, which holds the lower source indices.
  void match(const Node& left, const Node& right, Node& winner,
             Node& loser) const {
    const bool right_wins = less(right, left);
    winner = pick(right_wins, left, right);
    loser = pick(right_wins, right, left);
  }

  // On the winner's path every stored loser came from the sibling
  // subtree, so the parity of the child index says which side `cur` is on.
  void replay(Node cur) {
    for (usize n = cap_ + cur.src; n > 1; n /= 2) {
      const Node other = nodes_[n / 2];
      const bool from_right = (n & 1) != 0;
      match(pick(from_right, cur, other), pick(from_right, other, cur), cur,
            nodes_[n / 2]);
    }
    nodes_[0] = cur;
  }

  usize k_;
  usize cap_;
  Cmp cmp_;
  std::vector<Node> nodes_;  // [0]: the winner; [1, cap): stored losers
};

}  // namespace pdm
