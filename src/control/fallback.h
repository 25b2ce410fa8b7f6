// Solver fallback chain: no SolverError or iteration-limit blowup may ever
// abort an epoch of the serve daemon (serve/daemon.h).
//
// The chain tries its rungs in fixed quality order —
//
//   rung 0  LP-HTA under an iteration budget (the paper's algorithm; best
//           energy, but its Step-1 LP can exhaust the budget on adversarial
//           or degenerate instances),
//   rung 1  HGOS (greedy, never solves an LP),
//   rung 2  LocalFirst (O(n) greedy; cannot fail),
//
// — catching SolverError from a rung and moving on, and records which rung
// served. Only if *every* rung throws does the chain rethrow the last
// error; with the default rungs that cannot happen, which is the
// availability guarantee the daemon builds on.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "assign/assigner.h"
#include "assign/lp_hta.h"

namespace mecsched::control {

enum class FallbackRung : std::size_t {
  kLpHta = 0,
  kHgos = 1,
  kLocalFirst = 2,
};

inline constexpr std::size_t kNumRungs = 3;

std::string to_string(FallbackRung r);

// Cumulative tally of which rung produced each served assignment.
struct RungHistogram {
  std::array<std::size_t, kNumRungs> served{};

  std::size_t total() const;
  std::size_t& operator[](FallbackRung r) {
    return served[static_cast<std::size_t>(r)];
  }
  std::size_t at(FallbackRung r) const {
    return served[static_cast<std::size_t>(r)];
  }
};

class FallbackChain {
 public:
  // The standard chain described above. `lp` configures rung 0;
  // lp.max_lp_iterations is the iteration budget (0 = engine default).
  explicit FallbackChain(assign::LpHtaOptions lp = {});

  // A custom chain (tests use throwing stubs). Rungs map to histogram
  // slots by position; at most kNumRungs rungs.
  explicit FallbackChain(
      std::vector<std::shared_ptr<assign::Assigner>> rungs);

  // Runs the chain. On success fills `served` with the winning rung and
  // returns its plan; rethrows the last SolverError only if every rung
  // failed.
  assign::Assignment assign(const assign::HtaInstance& instance,
                            FallbackRung& served) const;

  // Budgeted run. Every rung receives the same token (its deadline is
  // absolute, so later rungs automatically see only the *remaining*
  // budget); a rung that degrades to kDeadline internally either returns
  // an audited anytime plan or throws, in which case the next rung runs
  // with what is left. Non-final rungs are skipped outright once the
  // budget is exhausted — the final rung is the O(n log n) floor and
  // always runs. Observability: histogram fallback.budget_ms (remaining
  // budget at entry) and counters fallback.skipped.<rung>.
  assign::Assignment assign(const assign::HtaInstance& instance,
                            FallbackRung& served,
                            const CancellationToken& cancel) const;

 private:
  std::vector<std::shared_ptr<assign::Assigner>> rungs_;
};

}  // namespace mecsched::control
