// Computation tasks (Sec. II).
//
// A holistic task T_ij = (op, LD, ED, L, C, T) is summarized here by the
// quantities the cost and assignment layers need: the data *sizes*
// α = |LD| and β = |ED|, the owner L of the external data, the resource
// occupation C and the deadline T. Divisible tasks additionally carry the
// identities of their data items; those live in the dta module
// (dta/data_model.h) which reuses this struct for the rearranged
// (local-only) tasks it hands back to LP-HTA.
#pragma once

#include <cstddef>
#include <string>

namespace mecsched::mec {

// How a task's result size relates to its input size (η in the paper).
enum class ResultSizeKind {
  kProportional,  // η(y) = ratio * y   (paper default, ratio = 0.2)
  kConstant,      // η(y) = constant    (Fig. 5(b) "constant" series)
};

struct TaskId {
  std::size_t user = 0;   // i — also the id of the user's mobile device
  std::size_t index = 0;  // j — per-user task index

  friend bool operator==(const TaskId&, const TaskId&) = default;
};

struct Task {
  TaskId id;

  double local_bytes = 0.0;     // α_ij = |LD_ij|
  double external_bytes = 0.0;  // β_ij = |ED_ij|
  std::size_t external_owner = 0;  // L_ij: device that owns ED_ij

  double cycles_per_byte = 330.0;  // λ_ij (linear CPU-cycle model)

  ResultSizeKind result_kind = ResultSizeKind::kProportional;
  double result_ratio = 0.2;       // η when proportional
  double result_const_bytes = 0.0; // η(y) when constant

  double resource = 1.0;   // C_ij: resource units occupied while running
  double deadline_s = 0.0; // T_ij

  double input_bytes() const { return local_bytes + external_bytes; }

  // η(y) for this task's input.
  double result_bytes() const {
    return result_kind == ResultSizeKind::kProportional
               ? result_ratio * input_bytes()
               : result_const_bytes;
  }

  // CPU cycles to process the full input: λ_ij(α+β).
  double cycles() const { return cycles_per_byte * input_bytes(); }
};

std::string to_string(const TaskId& id);

// A task in a stream: released at release_s rather than known up front
// (the online extension, serve/stream.h).
struct TimedTask {
  Task task;  // deadline_s is *relative* to the release time
  double release_s = 0.0;
};

}  // namespace mecsched::mec
