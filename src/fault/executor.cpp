#include "fault/executor.h"

#include <chrono>
#include <stdexcept>
#include <string>

#include "fault/step_budget.h"
#include "masm/cfg.h"

namespace ferrum::fault {

Golden::Golden(const masm::AsmProgram& program, const vm::VmOptions& vm,
               GoldenRecord record, int ckpt_stride)
    : decoded(program),
      captured(ckpt_stride > 0 && !vm.hooked()),
      store_data(vm.fault_store_data),
      record(record) {
  // Liveness masks per flat pc (masm::LiveSet: what is live *before* the
  // instruction): the projection that keeps state digests blind to dead
  // register and stack noise. Only a digest-recording run pays for them.
  std::vector<std::uint64_t> live_masks;
  if (record == GoldenRecord::kSiteDigests) {
    live_masks.assign(decoded.code().size(), ~std::uint64_t{0});
    for (std::size_t f = 0; f < program.functions.size(); ++f) {
      const masm::AsmFunction& fn = program.functions[f];
      const masm::Liveness liveness(fn);
      for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
        const std::int32_t base =
            decoded.block_pc(static_cast<int>(f), static_cast<int>(b));
        for (std::size_t i = 0; i < fn.blocks[b].insts.size(); ++i) {
          live_masks[static_cast<std::size_t>(base) + i] = liveness.live_after(
              static_cast<int>(b), static_cast<int>(i) - 1);
        }
      }
    }
  }
  vm::Engine engine(decoded, vm);
  if (record != GoldenRecord::kNothing) engine.set_site_pc_sink(&site_pcs);
  if (record == GoldenRecord::kSiteDigests) {
    engine.set_state_digest_sink(&site_digests, &live_masks);
  }
  result = captured ? engine.run_capturing(
                          vm, static_cast<std::uint64_t>(ckpt_stride), ckpts)
                    : engine.run(vm, nullptr, 0);
  if (!result.ok()) {
    throw std::runtime_error(std::string("golden run failed: ") +
                             vm::exit_status_name(result.status));
  }
}

vm::VmOptions Golden::faulty(vm::VmOptions trials) const {
  if (trials.fault_store_data != store_data) {
    throw std::invalid_argument("golden run disagrees on fault_store_data");
  }
  trials.max_steps = faulty_step_budget(result.steps);
  return trials;
}

TrialExecutor::TrialExecutor(const Golden& golden, const vm::VmOptions& faulty,
                             int jobs)
    : golden_(golden),
      fast_forward_(golden.captured && !faulty.hooked()),
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
          engine = std::make_unique<vm::Engine>(golden_.decoded, faulty_);
        }
        // The whole chunk is one walk.
        std::vector<vm::Engine::Trial> trials(hi - lo);
        for (std::size_t i = lo; i < hi; ++i) {
          trials[i - lo] = {plan.data() + i * faults_per_trial,
                            faults_per_trial};
        }
        engine->walk(fast_forward_ ? &golden_.ckpts : nullptr, faulty_,
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
  out.describe(golden_.ckpts, fast_forward_);
  // Unordered sums over the worker engines — deterministic for a fixed
  // stride even though worker-chunk assignment is not.
  for (const auto& engine : engines_) {
    if (engine != nullptr) out.ff.merge(engine->stats());
  }
  return out;
}

}  // namespace ferrum::fault
