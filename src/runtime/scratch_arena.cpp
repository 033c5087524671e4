#include "runtime/scratch_arena.hpp"

namespace flightnn::runtime {

namespace {

template <typename T>
std::vector<T>& resized(std::vector<T>& buffer, std::size_t n) {
  if (buffer.capacity() < n) buffer.reserve(n);
  buffer.resize(n);
  return buffer;
}

}  // namespace

ScratchArena& ScratchArena::current() {
  thread_local ScratchArena arena;
  return arena;
}

std::vector<std::int16_t>& ScratchArena::i16(Scratch slot, std::size_t n) {
  return resized(i16_[static_cast<std::size_t>(slot)], n);
}

std::vector<float>& ScratchArena::f32(Scratch slot, std::size_t n) {
  return resized(f32_[static_cast<std::size_t>(slot)], n);
}

void ScratchArena::adopt_layout(const ArenaLayout& layout) {
  const std::size_t capacity = layout.capacity_bytes();
  if (capacity > block_bytes_) {
    block_ = std::make_unique<std::byte[]>(capacity + kArenaAlignment);
    const auto addr = reinterpret_cast<std::uintptr_t>(block_.get());
    const std::uintptr_t aligned =
        (addr + (kArenaAlignment - 1)) &
        ~static_cast<std::uintptr_t>(kArenaAlignment - 1);
    base_ = block_.get() + (aligned - addr);
    block_bytes_ = capacity;
  }
  layout_id_ = layout.id();
  planned_capacity_ = capacity;
}

void* ScratchArena::planned_fetch(const PlanContext* ctx, Scratch slot,
                                  std::size_t bytes) {
  if (ctx == nullptr || ctx->layout == nullptr) return nullptr;
  const ArenaLayout& layout = *ctx->layout;
  if (layout_id_ != layout.id()) adopt_layout(layout);
  const ArenaLayout::Extent extent = layout.find(ctx->op, slot);
  if (extent.offset == kUnassignedOffset || extent.bytes < bytes ||
      extent.offset + align_up(extent.bytes) > planned_capacity_) {
    ++plan_misses_;
    return nullptr;
  }
  ++planned_hits_;
  return base_ + extent.offset;
}

std::int16_t* ScratchArena::i16p(const PlanContext* ctx, Scratch slot,
                                 std::size_t n) {
  if (void* p = planned_fetch(ctx, slot, n * sizeof(std::int16_t))) {
    return static_cast<std::int16_t*>(p);
  }
  return i16(slot, n).data();
}

float* ScratchArena::f32p(const PlanContext* ctx, Scratch slot,
                          std::size_t n) {
  if (void* p = planned_fetch(ctx, slot, n * sizeof(float))) {
    return static_cast<float*>(p);
  }
  return f32(slot, n).data();
}

std::size_t ScratchArena::footprint_bytes() const {
  std::size_t bytes = 0;
  for (std::size_t s = 0; s < kSlots; ++s) {
    bytes += i16_[s].capacity() * sizeof(std::int16_t);
    bytes += f32_[s].capacity() * sizeof(float);
  }
  if (block_) bytes += block_bytes_ + kArenaAlignment;
  return bytes;
}

void ScratchArena::trim() {
  for (std::size_t s = 0; s < kSlots; ++s) {
    std::vector<std::int16_t>().swap(i16_[s]);
    std::vector<float>().swap(f32_[s]);
  }
  block_.reset();
  block_bytes_ = 0;
  base_ = nullptr;
  layout_id_ = 0;
  planned_capacity_ = 0;
}

}  // namespace flightnn::runtime
