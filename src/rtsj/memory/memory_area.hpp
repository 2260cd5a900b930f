// RTSJ memory areas: HeapMemory, ImmortalMemory, ScopedMemory.
//
// This is the substrate the paper's MemoryArea components compile down to.
// Semantics implemented here, mirroring RTSJ:
//   * allocation contexts — `new` goes to the area on top of the current
//     thread's scope stack (rtcf::rtsj::current_area());
//   * scoped memories with enter()/reference counting — the region is
//     reclaimed (C++ destructors run, bump pointer rewound) when the last
//     logical thread leaves;
//   * the single parent rule — a scope's parent is fixed by its first
//     enter(); entering from a context with a different parent throws
//     ScopedCycleException;
//   * executeInArea() — temporarily redirects the allocation context to an
//     area already on the scope stack (or heap/immortal);
//   * portals — per-scope exchange object, store-checked like any
//     reference;
//   * NHRT heap barrier — allocation on the heap from a no-heap thread
//     throws MemoryAccessError.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "rtsj/memory/errors.hpp"
#include "util/arena.hpp"

namespace rtcf::rtsj {

class ThreadContext;

enum class AreaKind { Heap, Immortal, Scoped };

const char* to_string(AreaKind kind) noexcept;

/// Abstract memory area (javax.realtime.MemoryArea).
class MemoryArea {
 public:
  MemoryArea(const MemoryArea&) = delete;
  MemoryArea& operator=(const MemoryArea&) = delete;
  virtual ~MemoryArea();

  AreaKind kind() const noexcept { return kind_; }
  const std::string& name() const noexcept { return name_; }

  /// Declared capacity in bytes; 0 means "unbounded" (heap/immortal grow on
  /// demand).
  std::size_t size() const noexcept { return declared_size_; }
  std::size_t memory_consumed() const noexcept { return arena_.consumed(); }
  std::size_t memory_remaining() const noexcept;
  bool contains(const void* p) const noexcept { return arena_.contains(p); }

  /// Raw allocation in this area. Throws OutOfMemoryError when a fixed-size
  /// area is exhausted; throws MemoryAccessError when a no-heap thread
  /// allocates on the heap. Heap and immortal allocation is serialized:
  /// every node runtime of a process allocates there, from its own
  /// threads, when it commits a reload.
  void* allocate(std::size_t bytes, std::size_t align);

  /// Allocates and constructs a T in this area (RTSJ newInstance). The
  /// object's destructor runs when the area is reclaimed.
  template <typename T, typename... Args>
  T* make(Args&&... args) {
    void* storage = allocate(sizeof(T), alignof(T));
    T* obj = new (storage) T(std::forward<Args>(args)...);
    void (*finalizer)(void*) = nullptr;
    if constexpr (!std::is_trivially_destructible_v<T>) {
      finalizer = [](void* p) { static_cast<T*>(p)->~T(); };
    }
    register_object(obj, finalizer);
    return obj;
  }

  /// Runs `logic` with this area pushed as the current allocation context
  /// (RTSJ MemoryArea.enter()). For scoped memories this participates in
  /// reference counting and the single parent rule.
  void enter(const std::function<void()>& logic);

  /// Runs `logic` with this area as allocation context without changing the
  /// scope stack (RTSJ executeInArea). A scoped area must already be on the
  /// caller's scope stack, otherwise InaccessibleAreaException.
  void execute_in_area(const std::function<void()>& logic);

  /// Number of live objects constructed via make<T>() and not yet
  /// finalized.
  std::size_t object_count() const noexcept { return object_count_; }

 protected:
  MemoryArea(AreaKind kind, std::string name, std::size_t declared_size,
             bool fixed);

  /// Hook called before the allocation context is pushed; scoped memories
  /// enforce parenting here.
  virtual void on_enter(ThreadContext& ctx);
  /// Hook called after the allocation context is popped.
  virtual void on_exit(ThreadContext& ctx);
  /// Subclass veto on allocation (heap applies the NHRT barrier).
  virtual void check_allocation() const {}

  /// Counts one make<T>() object and records its finalizer (`fn` may be
  /// null for trivially destructible objects); serialized like allocate().
  void register_object(void* obj, void (*fn)(void*));
  /// Runs finalizers in reverse construction order and rewinds the arena.
  void reclaim();

  util::Arena arena_;
  std::size_t object_count_ = 0;

 private:
  struct Finalizer {
    void* object;
    void (*fn)(void*);
  };

  /// Holds mutex_ for the process-wide areas (heap, immortal); scoped
  /// areas return an empty lock.
  std::unique_lock<std::mutex> lock_if_shared();

  AreaKind kind_;
  std::string name_;
  std::size_t declared_size_;
  std::vector<Finalizer> finalizers_;
  std::mutex mutex_;
};

/// The garbage-collected heap, simulated.
///
/// Allocation is tracked so the GC interference model (src/sim) can size
/// simulated collection pauses by live-byte counts. Reclamation of real C++
/// objects only happens on explicit reset_for_testing(); the evaluation
/// scenarios preallocate and reuse messages, as an embedded RTSJ
/// application would.
class HeapMemory final : public MemoryArea {
 public:
  static HeapMemory& instance();

  /// Cumulative number of allocations (GC pressure metric).
  std::uint64_t allocation_count() const noexcept {
    return allocations_.load(std::memory_order_relaxed);
  }

  /// Testing hook: runs finalizers and rewinds the heap. Must not be called
  /// while heap objects are still referenced.
  void reset_for_testing();

 protected:
  void check_allocation() const override;

 private:
  HeapMemory();
  friend class MemoryArea;
  std::atomic<std::uint64_t> allocations_{0};
  void count_allocation() noexcept {
    allocations_.fetch_add(1, std::memory_order_relaxed);
  }
};

/// ImmortalMemory: never reclaimed, shared by all threads, always a legal
/// store target.
class ImmortalMemory final : public MemoryArea {
 public:
  static ImmortalMemory& instance();

 private:
  ImmortalMemory();
};

/// ScopedMemory with linear-time allocation (RTSJ LTMemory): the full
/// region is preallocated at construction.
class ScopedMemory : public MemoryArea {
 public:
  /// @param name  Diagnostic name (the ADL `AreaDesc name` attribute).
  /// @param bytes Fixed region capacity (the ADL `AreaDesc size`).
  ScopedMemory(std::string name, std::size_t bytes);
  ~ScopedMemory() override;

  /// The area below this scope at its first enter(); nullptr while
  /// unparented (reference count zero). Heap/immortal parents are reported
  /// as the "primordial" parent, also nullptr, per RTSJ.
  ScopedMemory* parent() const noexcept { return parent_; }
  /// True once the scope is entered and parented (including primordial).
  bool parented() const noexcept { return parented_; }

  /// Number of logical threads currently inside the scope.
  int reference_count() const noexcept { return ref_count_; }

  /// Portal object exchange (RTSJ get/setPortal). The portal must be
  /// allocated inside this scope; callers must have the scope on their
  /// scope stack.
  void set_portal(void* portal);
  void* portal() const;

  /// True when `outer` is this scope or an ancestor of this scope via the
  /// parent chain — i.e. objects living in `outer` outlive objects living
  /// here. Drives the assignment checker.
  bool descends_from(const ScopedMemory* outer) const noexcept;

 protected:
  void on_enter(ThreadContext& ctx) override;
  void on_exit(ThreadContext& ctx) override;

 private:
  friend class ScopePin;
  ScopedMemory* parent_ = nullptr;
  bool parented_ = false;
  int ref_count_ = 0;
  void* portal_ = nullptr;
};

/// Emulates the *wedge thread* pattern (Pizlo et al. [17]): a dedicated
/// logical thread that enters a scope and parks there, holding its
/// reference count above zero so the region is not reclaimed between
/// releases of the components allocated inside it. The framework pins every
/// architecture-declared scoped area for the application's lifetime; the
/// pin is released (and the scope reclaimed) on shutdown.
class ScopePin {
 public:
  /// Enters `scope` on behalf of `wedge_ctx` (single parent rule enforced
  /// exactly as for a normal enter) and keeps it entered.
  ScopePin(ScopedMemory& scope, ThreadContext& wedge_ctx);
  ~ScopePin();
  ScopePin(const ScopePin&) = delete;
  ScopePin& operator=(const ScopePin&) = delete;

  ScopedMemory& scope() const noexcept { return scope_; }

 private:
  ScopedMemory& scope_;
  ThreadContext& wedge_ctx_;
};

/// RTSJ LTMemory is the linear-time variant of ScopedMemory; our
/// ScopedMemory already implements LT semantics, the alias keeps user code
/// close to RTSJ vocabulary.
using LTMemory = ScopedMemory;

/// The allocation context of the calling logical thread (top of its scope
/// stack). Outside any managed context this is the heap.
MemoryArea& current_area();

/// Convenience: allocate a T in the current allocation context (the
/// semantics of Java `new` under RTSJ).
template <typename T, typename... Args>
T* make_in_current(Args&&... args) {
  return current_area().make<T>(std::forward<Args>(args)...);
}

}  // namespace rtcf::rtsj
