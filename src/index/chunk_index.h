// The auxiliary chunk index (paper §3.1, §3.3.2 stage 6).
//
// Maps minKey -> chunk.  The index is an *accelerator*, not the source of
// truth: it may lag behind the chunk linked list (updates are lazy, done only
// by rebalance), so every user of Lookup must continue with a traversal of
// the chunk list.  Required API, from the paper:
//
//   - Lookup(k) (the paper's loadPrev): wait-free; the chunk mapped to the
//     highest indexed key that does not exceed k.
//   - PutConditional(k, prev, c): map k to c provided the highest indexed
//     key not exceeding k is currently mapped to prev (semantic LL/SC).
//   - DeleteConditional(k, c): remove k only if currently mapped to c.
//
// "Such an index can be implemented in non-blocking ways using low-level
// atomic operations; in our implementation, we instead use locks."  We do
// the same: a skiplist whose readers are lock-free (per-level atomic next
// pointers, no helping required) and whose writers serialize on one mutex —
// index writes happen only during rebalance, which is rare by design.
//
// Readers may hold references to nodes a concurrent writer unlinks, so
// unlinked nodes are retired through the owning map's EBR domain; callers
// must invoke Lookup inside an EbrGuard.
//
// Templated on the core key Layout (core/layout.h): nodes own their key
// (a plain int64 for Int64Layout, a std::string for ByteLayout — owning is
// fine here, writes are rare and lock-held) and compares go through the
// layout's view comparison.
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>

#include "common/assert.h"
#include "common/config.h"
#include "common/random.h"
#include "core/layout.h"
#include "reclaim/ebr.h"

namespace kiwi::index {

template <typename Layout>
class ChunkIndexT {
 public:
  using KeyView = typename Layout::KeyView;
  using OwnedKey = typename Layout::OwnedKey;

  /// Opaque handle to whatever the index maps to (the core stores Chunk*).
  using Handle = void*;

  explicit ChunkIndexT(reclaim::Ebr& ebr) : ebr_(ebr) {
    head_ = new Node(Layout::OwnKey(Layout::SentinelMinKey()), nullptr,
                     kMaxHeight);
  }

  ~ChunkIndexT() {
    // Externally synchronized; walk level 0 and free directly.
    Node* node = head_;
    while (node != nullptr) {
      Node* next = node->next[0].load(std::memory_order_relaxed);
      delete node;
      node = next;
    }
  }

  ChunkIndexT(const ChunkIndexT&) = delete;
  ChunkIndexT& operator=(const ChunkIndexT&) = delete;

  /// Wait-free: handle mapped to the highest indexed key <= key, or nullptr
  /// if no such key is indexed.  Must be called inside an EbrGuard.
  Handle Lookup(KeyView key) const {
    Node* node = FindLessOrEqual(key, nullptr);
    return node == nullptr ? nullptr
                           : node->handle.load(std::memory_order_acquire);
  }

  /// Wait-free: handle mapped to the highest indexed key strictly *below*
  /// `key`, or nullptr.  Rebalance's list-predecessor search uses this
  /// instead of Lookup(key - 1) — byte keys have no "- 1".
  Handle LookupBelow(KeyView key) const {
    Node* pred = head_;
    for (int level = kMaxHeight - 1; level >= 0; --level) {
      Node* curr = pred->next[level].load(std::memory_order_acquire);
      while (curr != nullptr &&
             Layout::KeyLess(Layout::ViewKey(curr->key), key)) {
        pred = curr;
        curr = pred->next[level].load(std::memory_order_acquire);
      }
    }
    return pred == head_ ? nullptr
                         : pred->handle.load(std::memory_order_acquire);
  }

  /// Insert/overwrite the mapping key -> handle iff Lookup(key) would
  /// currently return prev.  Returns true on success.
  bool PutConditional(KeyView key, Handle prev, Handle handle) {
    std::lock_guard<std::mutex> lock(write_mutex_);
    Node* preds[kMaxHeight];
    Node* best = FindLessOrEqual(key, preds);
    const Handle current = best == nullptr
                               ? nullptr
                               : best->handle.load(std::memory_order_acquire);
    if (current != prev) return false;

    if (best != nullptr && Layout::KeyEq(Layout::ViewKey(best->key), key)) {
      // Key already indexed (mapped to prev): replace the mapping in place.
      best->handle.store(handle, std::memory_order_release);
      return true;
    }

    const int height = RandomHeight();
    Node* node = new Node(Layout::OwnKey(key), handle, height);
    for (int level = 0; level < height; ++level) {
      node->next[level].store(
          preds[level]->next[level].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    // Publish bottom-up; once the level-0 link is visible the node is live.
    for (int level = 0; level < height; ++level) {
      preds[level]->next[level].store(node, std::memory_order_release);
    }
    size_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Remove key iff it is currently mapped to handle.  Returns true if the
  /// mapping was removed (also true if the key was already absent, which is
  /// an idempotent success for rebalance retries).
  bool DeleteConditional(KeyView key, Handle handle) {
    std::lock_guard<std::mutex> lock(write_mutex_);
    Node* preds[kMaxHeight];
    Node* best = FindLessOrEqual(key, preds);
    if (best == nullptr || !Layout::KeyEq(Layout::ViewKey(best->key), key)) {
      return true;  // idempotent
    }
    if (best->handle.load(std::memory_order_acquire) != handle) return false;

    // Unlink top-down; readers that already hold the node keep following its
    // intact next pointers.
    for (int level = best->height - 1; level >= 0; --level) {
      // preds[level] may not directly precede best at this level if best is
      // shorter than the search path; only unlink where it does.
      if (preds[level]->next[level].load(std::memory_order_relaxed) == best) {
        preds[level]->next[level].store(
            best->next[level].load(std::memory_order_relaxed),
            std::memory_order_release);
      }
    }
    size_.fetch_sub(1, std::memory_order_relaxed);
    ebr_.RetireObject(best);
    return true;
  }

  /// Unconditional insert, used only for initial construction.
  void PutUnconditional(KeyView key, Handle handle) {
    const bool inserted = PutConditional(key, Lookup(key), handle);
    KIWI_ASSERT(inserted, "unconditional index put failed");
  }

  /// Number of indexed entries (approximate under concurrency).
  std::size_t Size() const { return size_.load(std::memory_order_relaxed); }

  /// Approximate bytes held by index nodes, for the memory-footprint bench.
  std::size_t MemoryFootprint() const {
    return Size() * sizeof(Node) + sizeof(*this);
  }

 private:
  static constexpr int kMaxHeight = 20;

  struct Node {
    OwnedKey key;
    std::atomic<Handle> handle;
    int height;
    std::atomic<Node*> next[kMaxHeight];

    Node(OwnedKey k, Handle h, int ht)
        : key(std::move(k)), handle(h), height(ht) {
      for (auto& n : next) n.store(nullptr, std::memory_order_relaxed);
    }
  };

  /// Greatest node with key <= target (never the head sentinel), or nullptr.
  /// Also fills preds[level] = last node with key < target at each level
  /// when preds != nullptr (writer path, called under lock).
  Node* FindLessOrEqual(KeyView key, Node** preds) const {
    Node* pred = head_;
    Node* candidate = nullptr;
    for (int level = kMaxHeight - 1; level >= 0; --level) {
      Node* curr = pred->next[level].load(std::memory_order_acquire);
      while (curr != nullptr &&
             Layout::KeyLess(Layout::ViewKey(curr->key), key)) {
        pred = curr;
        curr = pred->next[level].load(std::memory_order_acquire);
      }
      if (preds != nullptr) preds[level] = pred;
      // An exact match sits immediately after pred at some level.
      if (curr != nullptr && Layout::KeyEq(Layout::ViewKey(curr->key), key)) {
        candidate = curr;
      }
    }
    if (candidate != nullptr) return candidate;
    return pred == head_ ? nullptr : pred;
  }

  int RandomHeight() {
    int height = 1;
    while (height < kMaxHeight && (height_rng_.Next() & 3u) == 0) ++height;
    return height;
  }

  Node* head_;  // sentinel, key irrelevant, full height
  mutable std::mutex write_mutex_;
  reclaim::Ebr& ebr_;
  std::atomic<std::size_t> size_{0};
  Xoshiro256 height_rng_{0x1db7d1cdULL};  // guarded by write_mutex_
};

/// The fixed-width map's index — the original spelling.
using ChunkIndex = ChunkIndexT<core::Int64Layout>;

extern template class ChunkIndexT<core::Int64Layout>;
extern template class ChunkIndexT<core::ByteLayout>;

}  // namespace kiwi::index
