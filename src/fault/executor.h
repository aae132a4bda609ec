// The golden run and the trial executor. Every campaign, audit and
// compose round, and every bench that re-injects a plan, prepares one
// fault::Golden and runs its trials through a TrialExecutor over it:
// a pool of per-worker engines, every pool chunk as one golden walk
// (vm::Engine::walk).
//
// Determinism: which worker runs which chunk depends on scheduling, so a
// result sink must write only the slot of the trial index it is handed
// and reduce the slots in index order afterwards. Each trial's result is
// bit-identical to a cold run of its fault set, whatever the chunking
// and whatever the checkpoint stride.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "masm/masm.h"
#include "support/parallel.h"
#include "vm/engine.h"
#include "vm/vm.h"

namespace ferrum::fault {

/// What a golden run records besides its result and checkpoints. A run
/// records only what its caller reads.
enum class GoldenRecord : std::uint8_t {
  kNothing,
  /// The flat pc of every dynamic FI site, which resolves a dynamic site
  /// id to its static instruction (pruned campaigns and audits, compose).
  kSiteMap,
  /// The site map plus a liveness-masked digest of the machine state at
  /// every site (compose with a summary cache; see
  /// vm::Engine::set_state_digest_sink).
  kSiteDigests,
};

/// The golden (fault-free) run of one program: the predecode every trial
/// engine reads, the result trials are classified against, and the
/// checkpoints they restore from. Immutable after construction, so one
/// instance may back any number of concurrent campaigns of the program;
/// the program must outlive it.
///
/// The run depends on vm.fault_store_data (it numbers the dynamic FI
/// sites), so only trials under the same setting may use it. The
/// checkpoint stride never changes a result: it is a constructor
/// argument here and nowhere else, so the tests can cross it.
struct Golden {
  /// Runs the golden run under `vm`, capturing a checkpoint every
  /// `ckpt_stride` dynamic FI sites unless the stride is 0 or `vm` is
  /// hooked, and recording what `record` names. Throws
  /// std::runtime_error when the run does not exit cleanly.
  Golden(const masm::AsmProgram& program, const vm::VmOptions& vm,
         GoldenRecord record = GoldenRecord::kNothing, int ckpt_stride = 64);

  /// `trials` with the step budget of a faulty run (fault/step_budget.h):
  /// a fault can turn the program into a livelock. Throws
  /// std::invalid_argument when `trials` disagrees with this run on
  /// fault_store_data, which numbers the sites the trials inject into.
  vm::VmOptions faulty(vm::VmOptions trials) const;

  vm::PredecodedProgram decoded;
  vm::CheckpointSet ckpts;  // empty unless captured
  vm::VmResult result;
  bool captured = false;    // checkpoints were captured
  bool store_data = false;  // vm.fault_store_data of the run
  GoldenRecord record = GoldenRecord::kNothing;
  /// site_pcs[id] is the flat pc of dynamic site id (kSiteMap and
  /// kSiteDigests); site_digests[id] its state digest (kSiteDigests).
  std::vector<std::int32_t> site_pcs;
  std::vector<std::uint64_t> site_digests;
};

class TrialExecutor {
 public:
  /// Receives trial `i`'s result (called on the worker that ran it).
  using Sink = std::function<void(std::size_t, const vm::VmResult&)>;

  /// Trials restore from `golden`'s checkpoints when it captured them
  /// and `faulty` is not hooked; otherwise every walk starts cold.
  /// `golden` must outlive the executor. `faulty` are the trials' VM
  /// options, step budget included (Golden::faulty).
  TrialExecutor(const Golden& golden, const vm::VmOptions& faulty, int jobs);

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
  const Golden& golden_;
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
