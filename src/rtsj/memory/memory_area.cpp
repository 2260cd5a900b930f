#include "rtsj/memory/memory_area.hpp"

#include "rtsj/memory/area_registry.hpp"
#include "rtsj/memory/context.hpp"
#include "util/assert.hpp"

namespace rtcf::rtsj {

namespace {
constexpr std::size_t kImmortalInitialChunk = 256 * 1024;
constexpr std::size_t kHeapInitialChunk = 1024 * 1024;
}  // namespace

const char* to_string(AreaKind kind) noexcept {
  switch (kind) {
    case AreaKind::Heap:
      return "heap";
    case AreaKind::Immortal:
      return "immortal";
    case AreaKind::Scoped:
      return "scope";
  }
  return "?";
}

MemoryArea::MemoryArea(AreaKind kind, std::string name,
                       std::size_t declared_size, bool fixed)
    : arena_(declared_size == 0 ? (kind == AreaKind::Heap
                                       ? kHeapInitialChunk
                                       : kImmortalInitialChunk)
                                : declared_size,
             fixed),
      kind_(kind),
      name_(std::move(name)),
      declared_size_(declared_size) {
  AreaRegistry::instance().register_area(this);
}

MemoryArea::~MemoryArea() {
  // Run outstanding finalizers so scoped objects destruct even when an
  // area is destroyed while logically occupied (test teardown paths).
  for (auto it = finalizers_.rbegin(); it != finalizers_.rend(); ++it) {
    it->fn(it->object);
  }
  finalizers_.clear();
  AreaRegistry::instance().unregister_area(this);
}

std::size_t MemoryArea::memory_remaining() const noexcept {
  if (declared_size_ == 0) return static_cast<std::size_t>(-1);
  return arena_.remaining();
}

std::unique_lock<std::mutex> MemoryArea::lock_if_shared() {
  if (kind_ == AreaKind::Scoped) return std::unique_lock<std::mutex>();
  return std::unique_lock<std::mutex>(mutex_);
}

void* MemoryArea::allocate(std::size_t bytes, std::size_t align) {
  check_allocation();
  const std::unique_lock<std::mutex> lock = lock_if_shared();
  void* p = arena_.allocate(bytes, align);
  if (p == nullptr) {
    throw OutOfMemoryError("memory area '" + name_ + "' exhausted (" +
                           std::to_string(bytes) + " bytes requested, " +
                           std::to_string(arena_.remaining()) +
                           " remaining)");
  }
  if (kind_ == AreaKind::Heap) {
    static_cast<HeapMemory*>(this)->count_allocation();
  }
  return p;
}

void MemoryArea::enter(const std::function<void()>& logic) {
  auto& ctx = ThreadContext::current();
  on_enter(ctx);  // May throw (single parent rule) before any mutation.
  ctx.push_area(this);
  try {
    logic();
  } catch (...) {
    ctx.pop_area(this);
    on_exit(ctx);
    throw;
  }
  ctx.pop_area(this);
  on_exit(ctx);
}

void MemoryArea::execute_in_area(const std::function<void()>& logic) {
  auto& ctx = ThreadContext::current();
  if (kind_ == AreaKind::Scoped && !ctx.on_stack(this)) {
    throw InaccessibleAreaException(
        "executeInArea: scope '" + name_ +
        "' is not on the scope stack of thread '" + ctx.name() + "'");
  }
  ctx.push_override(this);
  try {
    logic();
  } catch (...) {
    ctx.pop_override();
    throw;
  }
  ctx.pop_override();
}

void MemoryArea::on_enter(ThreadContext&) {}
void MemoryArea::on_exit(ThreadContext&) {}

void MemoryArea::register_object(void* obj, void (*fn)(void*)) {
  const std::unique_lock<std::mutex> lock = lock_if_shared();
  if (fn != nullptr) finalizers_.push_back(Finalizer{obj, fn});
  ++object_count_;
}

void MemoryArea::reclaim() {
  for (auto it = finalizers_.rbegin(); it != finalizers_.rend(); ++it) {
    it->fn(it->object);
  }
  finalizers_.clear();
  object_count_ = 0;
  arena_.reset();
}

// ---------------------------------------------------------------- Heap

HeapMemory::HeapMemory() : MemoryArea(AreaKind::Heap, "heap", 0, false) {}

HeapMemory& HeapMemory::instance() {
  static HeapMemory heap;
  return heap;
}

void HeapMemory::check_allocation() const {
  const auto* ctx = ThreadContext::current_or_null();
  if (ctx != nullptr && ctx->no_heap()) {
    throw MemoryAccessError("NoHeapRealtimeThread '" + ctx->name() +
                            "' attempted a heap allocation");
  }
}

void HeapMemory::reset_for_testing() {
  reclaim();
  allocations_.store(0, std::memory_order_relaxed);
}

// ------------------------------------------------------------ Immortal

ImmortalMemory::ImmortalMemory()
    : MemoryArea(AreaKind::Immortal, "immortal", 0, false) {}

ImmortalMemory& ImmortalMemory::instance() {
  static ImmortalMemory immortal;
  return immortal;
}

// -------------------------------------------------------------- Scoped

ScopedMemory::ScopedMemory(std::string name, std::size_t bytes)
    : MemoryArea(AreaKind::Scoped, std::move(name), bytes, /*fixed=*/true) {
  RTCF_REQUIRE(bytes > 0, "scoped memory must declare a positive size");
}

ScopedMemory::~ScopedMemory() {
  RTCF_ASSERT(ref_count_ == 0);
}

void ScopedMemory::on_enter(ThreadContext& ctx) {
  ScopedMemory* candidate = ctx.innermost_scope();
  if (candidate == this) {
    throw ScopedCycleException("scope '" + name() +
                               "' re-entered while already the innermost "
                               "scope (cycle)");
  }
  if (!parented_) {
    parent_ = candidate;  // nullptr == primordial parent (heap/immortal).
    parented_ = true;
  } else if (parent_ != candidate) {
    throw ScopedCycleException(
        "single parent rule: scope '" + name() + "' already parented under '" +
        (parent_ ? parent_->name() : std::string("<primordial>")) +
        "', cannot be entered from '" +
        (candidate ? candidate->name() : std::string("<primordial>")) + "'");
  }
  ++ref_count_;
}

void ScopedMemory::on_exit(ThreadContext&) {
  RTCF_ASSERT(ref_count_ > 0);
  if (--ref_count_ == 0) {
    // Last thread left: run finalizers, rewind the region, unparent.
    reclaim();
    parent_ = nullptr;
    parented_ = false;
    portal_ = nullptr;
  }
}

void ScopedMemory::set_portal(void* portal) {
  if (portal != nullptr && !contains(portal)) {
    throw IllegalAssignmentError("portal of scope '" + name() +
                                 "' must be allocated inside the scope");
  }
  portal_ = portal;
}

void* ScopedMemory::portal() const {
  const auto& ctx = ThreadContext::current();
  if (!ctx.on_stack(this)) {
    throw InaccessibleAreaException("portal of scope '" + name() +
                                    "' requested by thread '" + ctx.name() +
                                    "' which has not entered it");
  }
  return portal_;
}

bool ScopedMemory::descends_from(const ScopedMemory* outer) const noexcept {
  for (const ScopedMemory* s = this; s != nullptr; s = s->parent_) {
    if (s == outer) return true;
  }
  return false;
}

// ------------------------------------------------------------ ScopePin

ScopePin::ScopePin(ScopedMemory& scope, ThreadContext& wedge_ctx)
    : scope_(scope), wedge_ctx_(wedge_ctx) {
  ContextGuard guard(wedge_ctx_);
  scope_.on_enter(wedge_ctx_);
  wedge_ctx_.push_area(&scope_);
}

ScopePin::~ScopePin() {
  ContextGuard guard(wedge_ctx_);
  wedge_ctx_.pop_area(&scope_);
  scope_.on_exit(wedge_ctx_);
}

// ---------------------------------------------------------------- misc

MemoryArea& current_area() {
  return ThreadContext::current().allocation_context();
}

}  // namespace rtcf::rtsj
