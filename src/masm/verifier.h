// Structural well-formedness checks for MiniASM programs. Run after the
// backend and after every protection pass: catches dangling labels,
// malformed operand shapes and terminator-discipline violations that
// would otherwise surface as confusing VM traps.
#pragma once

#include <string>
#include <vector>

#include "masm/masm.h"

namespace ferrum::masm {

/// Checks:
///  * every jump label resolves to a block of the same function, every
///    call target to a function or known intrinsic;
///  * every memory operand's global id is in range;
///  * operand shapes match each opcode (e.g. lea reads memory, setcc
///    writes a byte, pinsrq lane is 0/1), and every operand an
///    instruction uses as a general-purpose register is one
///    (gpr_operands_ok: lea writes a register, setcc a register or
///    memory, ...);
///  * jcc/jmp/ret appear only in a block's trailing terminator cluster;
///  * functions have at least one block and main exists when
///    `require_main`.
/// Returns human-readable violations; empty means valid.
std::vector<std::string> verify_program(const AsmProgram& program,
                                        bool require_main = true);

std::string verify_program_to_string(const AsmProgram& program,
                                     bool require_main = true);

}  // namespace ferrum::masm
