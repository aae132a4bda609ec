// Reference interpreter for MiniIR. This is the semantic oracle: the
// backend + VM pipeline must produce exactly the same output stream for
// every program, and the protection passes must preserve it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/ir.h"

namespace ferrum::ir {

enum class RunStatus : std::uint8_t {
  kOk,
  kTrapMemory,     // out-of-bounds or misaligned access
  kTrapDivide,     // integer division by zero / overflow
  kTrapSteps,      // step budget exhausted (likely livelock)
  kTrapCallDepth,  // recursion too deep
  kTrapInvalid,    // malformed IR reached at runtime
};

const char* run_status_name(RunStatus status);

/// Result of executing a module's main().
struct RunResult {
  RunStatus status = RunStatus::kOk;
  /// Values emitted by print_int / print_f64, as raw 64-bit images in
  /// emission order. This stream is the program "output" that defines SDC.
  std::vector<std::uint64_t> output;
  std::int64_t return_value = 0;
  std::uint64_t steps = 0;

  bool ok() const { return status == RunStatus::kOk; }
  /// Human-readable rendering of the output stream.
  std::string output_to_string() const;
};

struct InterpOptions {
  std::uint64_t max_steps = 200'000'000;
  /// Arena size. Below 0x1000 (the unmapped first page) every run traps
  /// kTrapMemory before its first instruction.
  std::size_t memory_bytes = 1u << 24;
  int max_call_depth = 256;
};

/// Executes @main (no arguments, i64 or void return).
RunResult interpret(const Module& module, const InterpOptions& options = {});

}  // namespace ferrum::ir
