#include "lp/workspace.h"

#include <algorithm>

namespace mecsched::lp {
namespace {

thread_local int g_pivot_loop_depth = 0;

}  // namespace

void SimplexWorkspace::begin_solve() {
  if (grew_this_solve_ && chunks_.size() > 1) {
    // The previous solve overflowed the reserved block: replace the chunk
    // chain with one block sized for everything it used, so this solve —
    // and every later one of the same shape — is a pure cursor reset.
    std::size_t total = 0;
    for (const Chunk& c : chunks_) total += c.size;
    chunks_.clear();
    Chunk block;
    block.data = std::make_unique<std::byte[]>(total);
    block.size = total;
    chunks_.push_back(std::move(block));
    ++grows_;
  } else if (!chunks_.empty()) {
    ++reuses_;
  }
  for (Chunk& c : chunks_) c.used = 0;
  active_ = 0;
  grew_this_solve_ = false;
}

void* SimplexWorkspace::raw_alloc(std::size_t bytes) {
  bytes = (bytes + kAlign - 1) & ~(kAlign - 1);
  while (active_ < chunks_.size()) {
    Chunk& c = chunks_[active_];
    if (c.size - c.used >= bytes) {
      void* p = c.data.get() + c.used;
      c.used += bytes;
      return p;
    }
    ++active_;
  }
  // Grow by appending — existing spans must stay valid until begin_solve().
  constexpr std::size_t kMinChunk = 64 * 1024;
  Chunk c;
  c.size = std::max(bytes, kMinChunk);
  c.data = std::make_unique<std::byte[]>(c.size);
  c.used = bytes;
  grew_this_solve_ = true;
  chunks_.push_back(std::move(c));
  active_ = chunks_.size() - 1;
  return chunks_.back().data.get();
}

SimplexWorkspace& SimplexWorkspace::tls() {
  thread_local SimplexWorkspace ws;
  return ws;
}

bool pivot_loop_active() { return g_pivot_loop_depth > 0; }

namespace internal {
PivotLoopScope::PivotLoopScope() { ++g_pivot_loop_depth; }
PivotLoopScope::~PivotLoopScope() { --g_pivot_loop_depth; }
}  // namespace internal

}  // namespace mecsched::lp
