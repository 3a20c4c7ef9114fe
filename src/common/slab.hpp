// Slab allocator for per-connection state.
//
// A SlabArena<T> carves objects out of fixed 64-slot pages and recycles
// retired slots through a LIFO freelist, so connection churn costs no
// allocator traffic once the arena has grown to the working-set size and
// a million connections cost pages, not a million mallocs.  The page
// structure is also what the TCP stack's coalesced timers key off: one
// scheduler event serves a whole page (64 connections), which is how a
// million idle connections occupy O(pages) timing-wheel entries.
//
// Objects are handed out as shared_ptr/unique_ptr whose deleter holds a
// reference to the arena core, so a deferred destruction (the scheduler's
// end-of-turn teardown pattern) may outlive the owning stack: pages stay
// alive until the last object drops, then free in one sweep.
//
// Allocation/recycle traffic is tallied process-wide (`datapath.slab.*`,
// DESIGN.md §8), like the PacketBuffer datapath counters.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/effect_annotations.hpp"

namespace hydranet {

/// Slab accounting (see DESIGN.md §8).  One block per thread, aggregated
/// on read: slab_counters() is the calling thread's block (plain adds on
/// the hot path), slab_totals() the process-wide wrapping sum.  Gauges
/// (pages/live/bytes) stay correct across threads because a +1 on the
/// allocating shard and a -1 on the freeing shard cancel in the sum.
struct SlabCounters {
  std::uint64_t pages = 0;      ///< pages currently allocated
  std::uint64_t live = 0;       ///< slots currently constructed
  std::uint64_t allocated = 0;  ///< total slot acquisitions
  std::uint64_t recycled = 0;   ///< acquisitions that reused a retired slot
  std::uint64_t freed = 0;      ///< total slot releases
  std::uint64_t bytes = 0;      ///< bytes currently reserved in pages
};

SlabCounters& slab_counters();
SlabCounters slab_totals();
void reset_slab_counters();

template <typename T>
class SlabArena {
 private:
  struct Core;

 public:
  static constexpr std::size_t kPageSlots = 64;

  SlabArena() : core_(std::make_shared<Core>()) {}
  SlabArena(const SlabArena&) = delete;
  SlabArena& operator=(const SlabArena&) = delete;

  class Deleter {
   public:
    Deleter() = default;
    Deleter(std::shared_ptr<Core> core, std::uint32_t slot)
        : core_(std::move(core)), slot_(slot) {}
    void operator()(T* p) const {
      p->~T();
      core_->release(slot_);
    }

   private:
    std::shared_ptr<Core> core_;
    std::uint32_t slot_ = 0;
  };

  using UniquePtr = std::unique_ptr<T, Deleter>;

  /// Constructs a T in a slab slot.  `slot_out`, when non-null, receives
  /// the slot index (page = slot / kPageSlots) for timer coalescing.
  template <typename... Args>
  std::shared_ptr<T> create_shared(std::uint32_t* slot_out, Args&&... args) {
    auto [mem, slot] = core_->acquire();
    T* obj = ::new (mem) T(std::forward<Args>(args)...);
    if (slot_out != nullptr) *slot_out = slot;
    return std::shared_ptr<T>(obj, Deleter(core_, slot));
  }

  template <typename... Args>
  UniquePtr create_unique(Args&&... args) {
    auto [mem, slot] = core_->acquire();
    T* obj = ::new (mem) T(std::forward<Args>(args)...);
    return UniquePtr(obj, Deleter(core_, slot));
  }

  std::size_t live() const { return core_->live; }
  std::size_t page_count() const { return core_->pages.size(); }
  /// Flat memory footprint of the arena's pages (the bytes/connection
  /// numerator in bench_connection_scale).
  std::size_t bytes_reserved() const {
    return core_->pages.size() * sizeof(Page);
  }

  /// The live object in `slot` (page = slot / kPageSlots).
  T& at(std::uint32_t slot) const {
    Page& p = *core_->pages[slot / kPageSlots];
    assert(p.occupied & (std::uint64_t{1} << (slot % kPageSlots)));
    return *p.slot_ptr(slot % kPageSlots);
  }

  /// Visits every live object in `page` as fn(T&, slot).
  template <typename Fn>
  void for_each_live_in_page(std::size_t page, Fn&& fn) const {
    if (page >= core_->pages.size()) return;
    Page& p = *core_->pages[page];
    std::uint64_t bits = p.occupied;
    while (bits != 0) {
      const auto i =
          static_cast<std::uint32_t>(__builtin_ctzll(bits));
      bits &= bits - 1;
      fn(*p.slot_ptr(i),
         static_cast<std::uint32_t>(page * kPageSlots + i));
    }
  }

 private:
  struct Page {
    alignas(T) unsigned char storage[sizeof(T) * kPageSlots];
    std::uint64_t occupied = 0;

    T* slot_ptr(std::size_t i) {
      // Slab pages hand out raw placement storage; this cast is the
      // sanctioned one (src/common/, like as_bytes).
      return std::launder(
          reinterpret_cast<T*>(storage + i * sizeof(T)));
    }
  };

  struct Core {
    std::vector<std::unique_ptr<Page>> pages;
    std::vector<std::uint32_t> free_slots;   ///< retired (LIFO — hot reuse)
    std::vector<std::uint32_t> fresh_slots;  ///< never used
    std::size_t live = 0;

    ~Core() {
      assert(live == 0 && "slab objects must not outlive the last owner");
      SlabCounters& c = slab_counters();
      c.pages -= pages.size();
      c.bytes -= pages.size() * sizeof(Page);
    }

    /// Hot-path effect root (DESIGN.md §12): slot recycle is a freelist
    /// pop — no allocator traffic once the arena reached working-set size.
    std::pair<void*, std::uint32_t> acquire() HN_NONALLOCATING {
      SlabCounters& c = slab_counters();
      std::uint32_t slot;
      if (!free_slots.empty()) {
        slot = free_slots.back();
        free_slots.pop_back();
        c.recycled++;
      } else {
        HN_EFFECT_ESCAPE(
            "slab page grow: the counted cold path (datapath.slab.pages) — "
            "fires once per 64 connections of working-set growth, never "
            "while slots recycle")
        if (fresh_slots.empty()) grow();
        HN_EFFECT_ESCAPE_END()
        slot = fresh_slots.back();
        fresh_slots.pop_back();
      }
      Page& p = *pages[slot / kPageSlots];
      p.occupied |= std::uint64_t{1} << (slot % kPageSlots);
      live++;
      c.allocated++;
      c.live++;
      return {p.slot_ptr(slot % kPageSlots), slot};
    }

    /// Hot-path effect root (DESIGN.md §12): retiring a slot pushes onto
    /// the LIFO freelist; the vector's capacity tracks the arena's
    /// high-water mark, so steady-state churn never reallocates.
    void release(std::uint32_t slot) HN_NONALLOCATING {
      Page& p = *pages[slot / kPageSlots];
      p.occupied &= ~(std::uint64_t{1} << (slot % kPageSlots));
      HN_EFFECT_ESCAPE(
          "freelist push: capacity is bounded by the arena's high-water "
          "slot count, so growth stops once the working set stops growing")
      free_slots.push_back(slot);
      HN_EFFECT_ESCAPE_END()
      live--;
      SlabCounters& c = slab_counters();
      c.freed++;
      c.live--;
    }

    void grow() {
      const auto base =
          static_cast<std::uint32_t>(pages.size() * kPageSlots);
      pages.push_back(std::make_unique<Page>());
      fresh_slots.reserve(fresh_slots.size() + kPageSlots);
      // Reversed so fresh slots pop in ascending order.
      for (std::size_t i = kPageSlots; i > 0; --i) {
        fresh_slots.push_back(base + static_cast<std::uint32_t>(i - 1));
      }
      SlabCounters& c = slab_counters();
      c.pages++;
      c.bytes += sizeof(Page);
    }
  };

  std::shared_ptr<Core> core_;
};

}  // namespace hydranet
