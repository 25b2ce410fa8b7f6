// Arena-backed per-thread solve state for the simplex engine.
//
// Every `SimplexSolver::solve` used to allocate its tableau vectors, the
// per-pivot scratch (dual prices, entering column) and the basis storage
// from the heap, then throw them away. At sweep
// and serve scale the solver is re-entered thousands of times per second
// with near-identical shapes (sweep cells, serve cluster solves), so the
// allocator traffic dominates small solves.
//
// `SimplexWorkspace` replaces that with a bump arena: one capacity-
// reserving block per thread from which a solve carves all of its state.
// `begin_solve()` resets the cursor; if the previous solve overflowed into
// extra chunks they are coalesced into a single block sized for the whole
// solve, so the steady state — the warm re-entry path — is exactly one
// long-lived allocation and zero heap traffic inside the solver
// (asserted by tests/lp/workspace_alloc_test.cpp). The workspace also owns
// the `BasisLu` eta-file kernel (lp/basis_lu.h), whose pools keep their
// capacity across solves for the same reason.
//
// The workspace is scratch, not state: every span is fully re-initialised
// by the solve that allocates it, so reuse never leaks values between
// solves and results are independent of which thread (or how warm a
// workspace) ran them — the PR 3 determinism contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "lp/basis_lu.h"

namespace mecsched::lp {

class SimplexWorkspace {
 public:
  SimplexWorkspace() = default;
  SimplexWorkspace(const SimplexWorkspace&) = delete;
  SimplexWorkspace& operator=(const SimplexWorkspace&) = delete;

  // Resets the arena cursor for a new solve. When the previous solve
  // fragmented the arena (grew past the reserved block), the chunks are
  // coalesced into one block first so this solve — and every later one of
  // the same shape — runs out of a single allocation.
  void begin_solve();

  // Bump-allocates `n` objects of trivially-destructible type T (8-byte
  // aligned). The returned memory is uninitialised; the caller writes every
  // element before reading. Pointers stay valid until the next
  // begin_solve(): growth appends a chunk, it never moves earlier ones.
  template <typename T>
  T* alloc(std::size_t n) {
    static_assert(alignof(T) <= kAlign, "arena alignment is 8 bytes");
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena types are never destroyed");
    return static_cast<T*>(raw_alloc(n * sizeof(T)));
  }

  // The eta-file LU basis kernel, pools preserved across solves.
  BasisLu& lu() { return lu_; }

  // Monotonic statistics for the obs layer (the solver reports per-solve
  // deltas as lp.simplex.workspace_{reuses,grows} — see docs/observability).
  std::uint64_t reuses() const { return reuses_; }
  std::uint64_t grows() const { return grows_; }

  // The calling thread's workspace. Thread-locality gives sweep workers and
  // cluster-solve workers allocation-free re-entry with no synchronisation;
  // solves on different threads never share one.
  static SimplexWorkspace& tls();

 private:
  static constexpr std::size_t kAlign = 8;

  void* raw_alloc(std::size_t bytes);

  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  BasisLu lu_;
  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;  // chunk the cursor lives in
  bool grew_this_solve_ = false;
  std::uint64_t reuses_ = 0;
  std::uint64_t grows_ = 0;
};

// Allocation-probe seam for the allocation-free pivot-loop contract. The
// solver brackets its pivot loops with PivotLoopScope; the regression test
// overrides global operator new and counts allocations made while
// pivot_loop_active() — production builds only pay two thread-local stores
// per optimize() call.
bool pivot_loop_active();

namespace internal {
struct PivotLoopScope {
  PivotLoopScope();
  ~PivotLoopScope();
  PivotLoopScope(const PivotLoopScope&) = delete;
  PivotLoopScope& operator=(const PivotLoopScope&) = delete;
};
}  // namespace internal

}  // namespace mecsched::lp
