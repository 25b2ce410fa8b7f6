// 0/1 knapsack solvers.
//
// Theorem 1 of the paper reduces the HTA special case (max_i = 0,
// T_ij = ∞) to 0/1 knapsack: item (i,j) has value E_ij3 - E_ij2 and weight
// C_ij, capacity max_S. These solvers make that special case exactly
// solvable: the tests' oracles for the exact ILP and branch-and-bound.
#pragma once

#include <cstdint>
#include <vector>

namespace mecsched::ilp {

struct KnapsackResult {
  double value = 0.0;
  std::vector<bool> taken;
};

// Exact DP over integer weights: O(n * capacity) time and memory.
// Values may be arbitrary non-negative doubles.
KnapsackResult knapsack_dp(const std::vector<double>& values,
                           const std::vector<std::int64_t>& weights,
                           std::int64_t capacity);

// Exact branch-and-bound with the fractional (Dantzig) upper bound; handles
// real-valued weights. Intended for n up to a few hundred.
KnapsackResult knapsack_branch_bound(const std::vector<double>& values,
                                     const std::vector<double>& weights,
                                     double capacity);

// Exhaustive 2^n reference (n <= 25); test oracle only.
KnapsackResult knapsack_brute_force(const std::vector<double>& values,
                                    const std::vector<double>& weights,
                                    double capacity);

}  // namespace mecsched::ilp
