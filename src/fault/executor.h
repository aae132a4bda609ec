// The trial executor: runs a pre-drawn fault plan across a pool of
// per-worker engines, every pool chunk as one golden walk
// (vm::Engine::walk). Campaigns, audits, compose rounds and the benches
// that re-inject a plan all run their trials through it.
//
// Determinism: which worker runs which chunk depends on scheduling, so a
// result sink must write only the slot of the trial index it is handed
// and reduce the slots in index order afterwards. Each trial's result is
// bit-identical to a cold run of its fault set, whatever the chunking.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "support/parallel.h"
#include "vm/engine.h"
#include "vm/vm.h"

namespace ferrum::fault {

class TrialExecutor {
 public:
  /// Receives trial `i`'s result (called on the worker that ran it).
  using Sink = std::function<void(std::size_t, const vm::VmResult&)>;

  /// `ckpts` comes from the golden run of `decoded`; with `fast_forward`
  /// off it is not used (cold walks) and only described. Both must
  /// outlive the executor. `faulty` are the trials' VM options, step
  /// budget included.
  TrialExecutor(const vm::PredecodedProgram& decoded,
                const vm::CheckpointSet& ckpts, bool fast_forward,
                const vm::VmOptions& faulty, int jobs);

  /// Runs trials [begin, end) of `plan`, where trial i injects the
  /// `faults_per_trial` specs starting at plan[i * faults_per_trial].
  /// May be called repeatedly (adaptive blocks, compose rounds): the pool
  /// and the engines persist across calls.
  void run(const std::vector<vm::FaultSpec>& plan,
           std::size_t faults_per_trial, std::size_t begin, std::size_t end,
           const Sink& sink);
  /// Runs every trial of a one-fault-per-trial plan.
  void run(const std::vector<vm::FaultSpec>& plan, const Sink& sink) {
    run(plan, 1, 0, plan.size(), sink);
  }

  // --- Observability only (scheduling-dependent, NOT deterministic) ---
  /// Trials run by each pool worker (index 0 = the calling thread).
  const std::vector<std::uint64_t>& trials_per_worker() const {
    return per_worker_;
  }
  /// Wall-clock seconds spent inside run().
  double wall_seconds() const { return wall_seconds_; }
  /// The checkpoint set's description plus the engines' merged ledger.
  vm::CheckpointTelemetry telemetry() const;

 private:
  const vm::PredecodedProgram& decoded_;
  const vm::CheckpointSet& ckpts_;
  const bool fast_forward_;
  const vm::VmOptions faulty_;
  ThreadPool pool_;
  /// One reusable engine per worker, created lazily on the thread that
  /// uses it: the arena is mapped once and reset by dirty-page diff.
  std::vector<std::unique_ptr<vm::Engine>> engines_;
  std::vector<std::uint64_t> per_worker_;
  double wall_seconds_ = 0.0;
};

}  // namespace ferrum::fault
