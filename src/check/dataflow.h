// The interprocedural backward dataflow driver that ferrum-prune (bit
// liveness) and ferrum-flow (sink reachability) run their domains on
// (DESIGN.md, "Backward dataflow driver"). It owns the resolution of
// callees (jcc/jmp targets come from masm::jump_targets), the block walk,
// the per-function solve, the bottom-up summary fixpoint and the top-down
// context fixpoint. A domain supplies its lattice and transfer,
// statically:
//
//   using State, Summary;  // both with ==; State::join; State{} is empty
//   std::vector<State> summary_seeds() const;  // a summary's exit seeds
//   Summary summarize(const std::vector<State>& entries) const;
//   State main_exit() const;                   // what main's ret feeds
//   void transfer(const masm::AsmInst&, State& s,
//                 const Edges<State, Summary>&) const;  // after -> before
//
// Every fixpoint is the least one, reached from empty states under
// monotone transfers, so the visiting order changes only the work, never
// the result. Summaries converge first, then contexts, and the report
// reads each function's last solve. A re-solve warm-starts from the
// function's previous iterate (exact, as summaries and contexts only
// grow), and only functions whose callee summaries or context changed
// are re-solved.
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "masm/masm.h"

namespace ferrum::check::dataflow {

/// Callee-table entries other than a function index. An unknown callee
/// traps before its return-address push.
constexpr int kCalleeUnknown = -1;
constexpr int kCalleePrintInt = -2;
constexpr int kCalleePrintF64 = -3;

/// What a transfer reads beyond its own state, for one instruction.
template <typename State, typename Summary>
struct Edges {
  int function = 0;
  /// jcc/jmp: the target block and its state-in, or -1 and nullptr when
  /// the label does not resolve (the VM traps on that edge).
  int target = -1;
  const State* target_in = nullptr;
  /// call: a function index or kCallee* code, and a function's summary.
  int callee = kCalleeUnknown;
  const Summary* summary = nullptr;
  const State* exit = nullptr;  // ret: the current solve's exit seed
};

using Graph = std::vector<std::vector<std::size_t>>;  // successor lists

/// Depth-first post-order, rooted at every node in index order so that
/// unreachable nodes are ordered too. Iterative, so that a long chain of
/// blocks cannot exhaust the stack.
inline std::vector<std::size_t> post_order(const Graph& succ) {
  std::vector<std::size_t> order;
  std::vector<char> seen(succ.size(), 0);
  std::vector<std::pair<std::size_t, std::size_t>> stack;  // node, next edge
  for (std::size_t root = 0; root < succ.size(); ++root) {
    if (seen[root] != 0) continue;
    seen[root] = 1;
    stack.emplace_back(root, 0);
    while (!stack.empty()) {
      auto& [node, edge] = stack.back();
      if (edge == succ[node].size()) {
        order.push_back(node);
        stack.pop_back();
      } else if (const std::size_t s = succ[node][edge++]; seen[s] == 0) {
        seen[s] = 1;
        stack.emplace_back(s, 0);
      }
    }
  }
  return order;
}

/// Calls step(item, push) for pending items, lowest rank first (order[k]
/// has rank k), until none is pending. Every item starts pending, and
/// push(item) makes one pending again unless it already is.
template <typename Step>
void run_worklist(const std::vector<std::size_t>& order, Step&& step) {
  std::vector<std::size_t> rank(order.size());
  std::set<std::size_t> pending;  // ranks
  for (std::size_t k = 0; k < order.size(); ++k) {
    rank[order[k]] = k;
    pending.insert(pending.end(), k);
  }
  const auto push = [&](std::size_t item) { pending.insert(rank[item]); };
  while (!pending.empty()) {
    step(order[pending.extract(pending.begin()).value()], push);
  }
}

template <typename Domain>
class BackwardDataflow {
 public:
  using State = typename Domain::State;
  using Summary = typename Domain::Summary;

  /// Resolves targets and callees, then solves summaries and contexts.
  BackwardDataflow(const masm::AsmProgram& program, Domain domain)
      : prog_(program), domain_(std::move(domain)) {
    const std::size_t nfuncs = prog_.functions.size();
    std::unordered_map<std::string, int> by_name;
    for (std::size_t f = 0; f < nfuncs; ++f) {
      by_name.emplace(prog_.functions[f].name, static_cast<int>(f));
    }
    fns_.resize(nfuncs);
    callers_.resize(nfuncs);
    for (std::size_t f = 0; f < nfuncs; ++f) {
      const auto& blocks = prog_.functions[f].blocks;
      Tables& t = fns_[f];
      t.target = masm::jump_targets(prog_.functions[f]);
      t.callee.resize(blocks.size());
      t.users.resize(blocks.size());
      // Block b reads the state-in of b+1 (the walk's fall-through seed,
      // even past a jmp or ret) and of every jcc/jmp target inside it.
      Graph succ(blocks.size());
      for (std::size_t b = 0; b < blocks.size(); ++b) {
        const auto& insts = blocks[b].insts;
        t.callee[b].assign(insts.size(), kCalleeUnknown);
        if (b + 1 < blocks.size()) succ[b].push_back(b + 1);
        for (std::size_t i = 0; i < insts.size(); ++i) {
          const std::string& label = insts[i].ops[0].label;
          if (t.target[b][i] >= 0) {
            succ[b].push_back(static_cast<std::size_t>(t.target[b][i]));
          } else if (insts[i].op == masm::Op::kCall) {
            // Builtins precede the function lookup, mirroring the decoder
            // (a user function named print_int is unreachable).
            int& callee = t.callee[b][i];
            if (label == "print_int") {
              callee = kCalleePrintInt;
            } else if (label == "print_f64") {
              callee = kCalleePrintF64;
            } else if (const auto it = by_name.find(label);
                       it != by_name.end()) {
              callee = it->second;
              callers_[static_cast<std::size_t>(callee)].push_back(f);
              if (t.call_blocks.empty() || t.call_blocks.back() != b) {
                t.call_blocks.push_back(b);
              }
            }
          }
        }
        for (const std::size_t s : succ[b]) t.users[s].push_back(b);
      }
      t.order = post_order(succ);
    }
    summaries_.resize(nfuncs);
    context_.resize(nfuncs);
    solved_.resize(nfuncs);
    // A post-order of the caller graph puts callers first.
    caller_first_ = post_order(callers_);
    solve_summaries();
    solve_contexts();
  }

  const Domain& domain() const { return domain_; }
  /// jcc/jmp target block; -1 for an unresolved label or another op.
  int target(std::size_t f, std::size_t b, std::size_t i) const {
    return fns_[f].target[b][i];
  }

  /// The state after every instruction of f, under f's final context.
  std::vector<std::vector<State>> after_states(std::size_t f) const {
    const auto& blocks = prog_.functions[f].blocks;
    std::vector<std::vector<State>> after(blocks.size());
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      after[b].resize(blocks[b].insts.size());
      walk(f, b, solved_[f], context_[f],
           [&](std::size_t i, const State& s) { after[b][i] = s; });
    }
    return after;
  }

 private:
  struct Tables {
    std::vector<std::vector<int>> target;  // [block][inst]
    std::vector<std::vector<int>> callee;  // [block][inst]
    Graph users;                           // blocks reading each state-in
    std::vector<std::size_t> order;        // block post-order
    std::vector<std::size_t> call_blocks;  // blocks that call a function
  };

  /// Walks block b backward from its fall-through seed (the state-in of
  /// b+1; nothing past the last block, where falling off traps), calling
  /// visit(i, after-state of i) before each transfer.
  template <typename Visit>
  State walk(std::size_t f, std::size_t b, const std::vector<State>& in,
             const State& exit, Visit&& visit) const {
    const Tables& t = fns_[f];
    const auto& insts = prog_.functions[f].blocks[b].insts;
    State s = b + 1 < in.size() ? in[b + 1] : State{};
    Edges<State, Summary> edges{.function = static_cast<int>(f), .exit = &exit};
    for (std::size_t i = insts.size(); i-- > 0;) {
      visit(i, s);
      edges.target = t.target[b][i];
      edges.target_in = edges.target < 0 ? nullptr : &in[edges.target];
      edges.callee = t.callee[b][i];
      edges.summary = edges.callee < 0 ? nullptr : &summaries_[edges.callee];
      domain_.transfer(insts[i], s, edges);
    }
    return s;
  }

  /// Solves f's block states under `exit` to the least fixpoint, starting
  /// from `in` (empty states, or an earlier iterate below the fixpoint).
  void solve(std::size_t f, const State& exit, std::vector<State>& in) const {
    const Tables& t = fns_[f];
    in.resize(t.target.size());
    run_worklist(t.order, [&](std::size_t b, const auto& push) {
      State s = walk(f, b, in, exit, [](std::size_t, const State&) {});
      if (s == in[b]) return;
      in[b] = std::move(s);
      for (const std::size_t u : t.users[b]) push(u);
    });
  }

  /// Bottom-up: a summary maps f's entry states under the domain's exit
  /// seeds; a changed summary re-solves f's callers.
  void solve_summaries() {
    const std::vector<State> seeds = domain_.summary_seeds();
    std::vector<std::vector<std::vector<State>>> in(
        summaries_.size(), std::vector<std::vector<State>>(seeds.size()));
    const std::vector<std::size_t> callee_first(caller_first_.rbegin(),
                                                caller_first_.rend());
    run_worklist(callee_first, [&](std::size_t f, const auto& push) {
      std::vector<State> entries;
      for (std::size_t k = 0; k < seeds.size(); ++k) {
        solve(f, seeds[k], in[f][k]);
        entries.push_back(in[f][k].empty() ? State{} : in[f][k].front());
      }
      Summary summary = domain_.summarize(entries);
      if (summary == summaries_[f]) return;
      summaries_[f] = std::move(summary);
      for (const std::size_t caller : callers_[f]) push(caller);
    });
  }

  /// Top-down: C(f) is what a ret of f feeds. main's is the domain's
  /// exit, and every call site of g joins its after-state into C(g); a
  /// changed context re-solves its function.
  void solve_contexts() {
    for (std::size_t f = 0; f < prog_.functions.size(); ++f) {
      if (prog_.functions[f].name == "main") context_[f] = domain_.main_exit();
    }
    run_worklist(caller_first_, [&](std::size_t f, const auto& push) {
      solve(f, context_[f], solved_[f]);
      for (const std::size_t b : fns_[f].call_blocks) {
        walk(f, b, solved_[f], context_[f], [&](std::size_t i, const State& s) {
          const int g = fns_[f].callee[b][i];
          if (g < 0) return;
          State joined = context_[static_cast<std::size_t>(g)];
          joined.join(s);
          if (joined == context_[static_cast<std::size_t>(g)]) return;
          context_[static_cast<std::size_t>(g)] = std::move(joined);
          push(static_cast<std::size_t>(g));
        });
      }
    });
  }

  const masm::AsmProgram& prog_;
  const Domain domain_;
  std::vector<Tables> fns_;
  Graph callers_;                           // one entry per call site
  std::vector<std::size_t> caller_first_;   // function order, top-down
  std::vector<Summary> summaries_;
  std::vector<State> context_;
  std::vector<std::vector<State>> solved_;  // block states-in, last solve
};

}  // namespace ferrum::check::dataflow
