#include "runtime/scratch_arena.hpp"

namespace flightnn::runtime {

ScratchArena& ScratchArena::current() {
  thread_local ScratchArena arena;
  return arena;
}

void* ScratchArena::reserve(Scratch slot, std::size_t bytes) {
  Slot& s = slots_[static_cast<std::size_t>(slot)];
  if (bytes > s.bytes) {
    // Release first so the old and new buffers are never held together.
    s.data.reset();
    s.bytes = 0;
    const std::size_t grown = align_up(bytes);
    s.data.reset(::operator new[](grown, std::align_val_t{kArenaAlignment}));
    s.bytes = grown;
  }
  return s.data.get();
}

std::size_t ScratchArena::footprint_bytes() const {
  std::size_t bytes = 0;
  for (const Slot& s : slots_) bytes += s.bytes;
  return bytes;
}

void ScratchArena::trim() {
  for (Slot& s : slots_) {
    s.data.reset();
    s.bytes = 0;
  }
}

}  // namespace flightnn::runtime
