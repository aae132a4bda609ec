// Small random MiniC programs shared by the test suites: the engine's
// differential fuzz and build-determinism checks, and the static-report
// pins in test_goldens.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>

#include "support/rng.h"

namespace ferrum {

/// Small random MiniC programs for differential fuzzing: bounded
/// loops, conditionals, array traffic and a helper call, all
/// division-free (trapping paths are exercised separately by the width
/// and step-budget tests, where the trap site is attributable).
inline std::string fuzz_program(std::uint64_t seed) {
  Rng rng(seed);
  std::ostringstream out;
  out << "int arr[8];\n"
      << "int helper(int a, int b) { return a * 3 - b + a * b; }\n"
      << "int main() {\n"
      << "  int a = " << rng.next_in_range(-9, 9) << ";\n"
      << "  int b = " << rng.next_in_range(1, 12) << ";\n"
      << "  double d = 0.5;\n"
      << "  for (int k = 0; k < 8; k++) { arr[k] = k * "
      << rng.next_in_range(1, 7) << "; }\n";
  const int statements = 3 + static_cast<int>(rng.next_below(5));
  for (int s = 0; s < statements; ++s) {
    const std::string t = "t" + std::to_string(s);
    switch (rng.next_below(5)) {
      case 0:
        out << "  a = helper(a, " << rng.next_in_range(-20, 20) << ");\n";
        break;
      case 1:
        out << "  for (int " << t << " = 0; " << t << " < "
            << 2 + rng.next_below(6) << "; " << t << "++) { b += arr["
            << rng.next_below(8) << "] + " << rng.next_in_range(-3, 3)
            << "; }\n";
        break;
      case 2:
        out << "  if (a " << (rng.next_bool(0.5) ? "<" : ">") << " b) { a = a "
            << (rng.next_bool(0.5) ? "+" : "-") << " "
            << rng.next_in_range(0, 15) << "; } else { b = b + a; }\n";
        break;
      case 3:
        out << "  arr[" << rng.next_below(8) << "] = a * "
            << rng.next_in_range(-5, 5) << " + b;\n";
        break;
      default:
        out << "  d = d * 0.5 + " << rng.next_in_range(-3, 3) << ";\n";
        break;
    }
  }
  out << "  print_int(a);\n"
      << "  print_int(b);\n"
      << "  print_f64(d);\n"
      << "  print_int(arr[" << rng.next_below(8) << "]);\n"
      << "  return a + b;\n"
      << "}\n";
  return out.str();
}

}  // namespace ferrum
