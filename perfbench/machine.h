// The machine's reference speed. The host this benchmark runs on is shared,
// and how fast it runs any code drifts over minutes by more than the
// benchmark's bounds. A fixed reference kernel, run in child processes
// between the workload's cells and timed there, measures that drift; the
// gated metrics are expressed at the reference speed (README.md,
// Steadiness). The kernel is the benchmark's own code, so no change to the
// program can move it, and it runs in processes of its own, so its memory
// and allocator never touch the measured program's (nor its peak RSS).
#pragma once

#include <sys/types.h>

#include <array>
#include <chrono>
#include <cstddef>
#include <vector>

namespace perfbench {

class MachineProbe {
 public:
  /// The reference kernel's parts, timed separately in each sample.
  static constexpr std::size_t kParts = 2;
  static constexpr const char* kPartNames[kParts] = {"copy", "fault"};
  /// Milliseconds of one sample (the sum of the parts' medians) at the
  /// reference speed: the quiet state of the 4-vCPU Xeon VM the benchmark
  /// was written on. A constant, so values stay comparable across commits.
  static constexpr double kReferenceMs = 3.5;
  /// Samples kept at most per part (over 15 minutes of samples).
  static constexpr std::size_t kMaxSamples = 4096;

  /// Forks `threads` children, one per thread the workload runs cells on,
  /// since a shared host slows parallel work more than serial work; call
  /// before the process starts any thread. A sample runs the kernel in
  /// every child at once and takes each part's mean over them.
  explicit MachineProbe(int threads);
  /// Closes the pipes and waits for the children to exit.
  ~MachineProbe();
  MachineProbe(const MachineProbe&) = delete;
  MachineProbe& operator=(const MachineProbe&) = delete;

  /// Starts counting samples due: from now on, one per `interval_s` of
  /// wall time. The first sample (buffers first touched) is discarded.
  void start(double interval_s);
  /// Takes the samples due since the last call (at most a few at once) and
  /// returns the wall seconds that took, for the caller to leave out of
  /// its measured time.
  double take_due();
  /// Takes samples until at least `n` are kept (short runs).
  void ensure(std::size_t n);

  std::size_t samples() const { return parts_[0].size(); }
  /// The sum over the parts of each part's median sample, in ms.
  double reference_ms() const;
  /// reference_ms() / kReferenceMs: above 1 when the machine ran slower
  /// than the reference.
  double factor() const;
  double part_ms(std::size_t part) const;

 private:
  /// One sample in the child; returns the parts' milliseconds.
  std::array<double, kParts> sample();
  /// Takes one sample and keeps it, unless it is the first.
  void take_one();
  /// Closes the children's pipes and waits for them to exit.
  void stop_children();

  struct Child {
    pid_t pid;
    int to;    // request bytes
    int from;  // the sample's milliseconds
  };
  std::vector<Child> children_;
  bool started_ = false;
  double interval_s_ = 0.25;
  std::chrono::steady_clock::time_point start_;
  std::size_t taken_ = 0;  // samples taken since start(), counting the first
  std::array<std::vector<double>, kParts> parts_;
};

}  // namespace perfbench
