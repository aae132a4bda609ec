#include "fault/executor.h"

#include <chrono>

namespace ferrum::fault {

TrialExecutor::TrialExecutor(const vm::PredecodedProgram& decoded,
                             const vm::CheckpointSet& ckpts,
                             bool fast_forward, const vm::VmOptions& faulty,
                             int jobs)
    : decoded_(decoded),
      ckpts_(ckpts),
      fast_forward_(fast_forward),
      faulty_(faulty),
      pool_(jobs),
      engines_(static_cast<std::size_t>(pool_.workers())),
      per_worker_(static_cast<std::size_t>(pool_.workers()), 0) {}

void TrialExecutor::run(const std::vector<vm::FaultSpec>& plan,
                        std::size_t faults_per_trial, std::size_t begin,
                        std::size_t end, const Sink& sink) {
  if (end <= begin) return;
  const auto start = std::chrono::steady_clock::now();
  pool_.parallel_for_indexed(
      end - begin, [&](int worker, std::size_t lo, std::size_t hi) {
        lo += begin;
        hi += begin;
        per_worker_[static_cast<std::size_t>(worker)] += hi - lo;
        auto& engine = engines_[static_cast<std::size_t>(worker)];
        if (engine == nullptr) {
          engine = std::make_unique<vm::Engine>(decoded_, faulty_);
        }
        // The whole chunk is one walk.
        std::vector<vm::Engine::Trial> trials(hi - lo);
        for (std::size_t i = lo; i < hi; ++i) {
          trials[i - lo] = {plan.data() + i * faults_per_trial,
                            faults_per_trial};
        }
        engine->walk(fast_forward_ ? &ckpts_ : nullptr, faulty_,
                     trials.data(), trials.size(),
                     [&](std::size_t lane, vm::VmResult& result) {
                       sink(lo + lane, result);
                     });
      });
  wall_seconds_ += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
}

vm::CheckpointTelemetry TrialExecutor::telemetry() const {
  vm::CheckpointTelemetry out;
  out.describe(ckpts_, fast_forward_);
  // Unordered sums over the worker engines — deterministic for a fixed
  // stride even though worker-chunk assignment is not.
  for (const auto& engine : engines_) {
    if (engine != nullptr) out.ff.merge(engine->stats());
  }
  return out;
}

}  // namespace ferrum::fault
