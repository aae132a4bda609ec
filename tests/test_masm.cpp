#include <gtest/gtest.h>

#include "masm/masm.h"
#include "masm/parser.h"
#include "support/source_location.h"

namespace ferrum::masm {
namespace {

TEST(Registers, NamesAtEveryWidth) {
  EXPECT_EQ(gpr_name(Gpr::kRax, 8), "rax");
  EXPECT_EQ(gpr_name(Gpr::kRax, 4), "eax");
  EXPECT_EQ(gpr_name(Gpr::kRax, 1), "al");
  EXPECT_EQ(gpr_name(Gpr::kR10, 8), "r10");
  EXPECT_EQ(gpr_name(Gpr::kR10, 4), "r10d");
  EXPECT_EQ(gpr_name(Gpr::kR10, 1), "r10b");
  EXPECT_EQ(gpr_name(Gpr::kRbp, 8), "rbp");
}

TEST(Conds, InvertIsInvolution) {
  for (Cond cc : {Cond::kE, Cond::kNe, Cond::kL, Cond::kLe, Cond::kG,
                  Cond::kGe, Cond::kA, Cond::kAe, Cond::kB, Cond::kBe}) {
    EXPECT_EQ(invert(invert(cc)), cc);
  }
  EXPECT_EQ(invert(Cond::kL), Cond::kGe);
  EXPECT_EQ(invert(Cond::kE), Cond::kNe);
}

TEST(Printer, AttOperandOrder) {
  AsmInst inst(Op::kMov, {Operand::make_reg(Gpr::kRcx, 8),
                          Operand::make_reg(Gpr::kRax, 8)});
  EXPECT_EQ(inst.to_string(), "movq\t%rcx, %rax");
}

TEST(Printer, WidthSuffixes) {
  AsmInst byte_op(Op::kXor, {Operand::make_reg(Gpr::kR11, 1),
                             Operand::make_reg(Gpr::kR12, 1)});
  EXPECT_EQ(byte_op.to_string(), "xorb\t%r11b, %r12b");
  AsmInst dword(Op::kAdd, {Operand::make_imm(5, 4),
                           Operand::make_reg(Gpr::kRdx, 4)});
  EXPECT_EQ(dword.to_string(), "addl\t$5, %edx");
}

TEST(Printer, MemoryOperands) {
  MemRef mem;
  mem.base = Gpr::kRbp;
  mem.disp = -24;
  AsmInst load(Op::kMov, {Operand::make_mem(mem, 8),
                          Operand::make_reg(Gpr::kRax, 8)});
  EXPECT_EQ(load.to_string(), "movq\t-24(%rbp), %rax");

  MemRef indexed;
  indexed.base = Gpr::kRbp;
  indexed.index = Gpr::kRcx;
  indexed.scale = 4;
  indexed.disp = -32;
  AsmInst lea(Op::kLea, {Operand::make_mem(indexed, 8),
                         Operand::make_reg(Gpr::kRdx, 8)});
  EXPECT_EQ(lea.to_string(), "leaq\t-32(%rbp,%rcx,4), %rdx");
}

TEST(Printer, PaperFigureSequences) {
  // The instruction forms of the paper's Fig 4 and Fig 6.
  AsmInst movslq(Op::kMovsx, {Operand::make_reg(Gpr::kRcx, 4),
                              Operand::make_reg(Gpr::kR10, 8)});
  EXPECT_EQ(movslq.to_string(), "movslq\t%ecx, %r10");

  AsmInst pinsr(Op::kPinsrq, {Operand::make_imm(1, 1),
                              Operand::make_reg(Gpr::kRdi, 8),
                              Operand::make_xmm(1)});
  EXPECT_EQ(pinsr.to_string(), "pinsrq\t$1, %rdi, %xmm1");

  AsmInst vins(Op::kVinserti128, {Operand::make_imm(1, 1),
                                  Operand::make_xmm(2),
                                  Operand::make_ymm(0)});
  EXPECT_EQ(vins.to_string(), "vinserti128\t$1, %xmm2, %ymm0");

  AsmInst vptest(Op::kVptest, {Operand::make_ymm(0), Operand::make_ymm(0)});
  EXPECT_EQ(vptest.to_string(), "vptest\t%ymm0, %ymm0");

  AsmInst jne(Op::kJcc, Cond::kNe, {Operand::make_label("exit")});
  EXPECT_EQ(jne.to_string(), "jne\t.exit");

  AsmInst sete(Op::kSetcc, Cond::kE, {Operand::make_reg(Gpr::kR11, 1)});
  EXPECT_EQ(sete.to_string(), "sete\t%r11b");
}

TEST(Program, LookupHelpers) {
  AsmProgram program;
  program.globals.push_back({"table", 64, {}});
  program.functions.push_back({"main", {}});
  EXPECT_EQ(program.global_index("table"), 0);
  EXPECT_EQ(program.global_index("nope"), -1);
  EXPECT_NE(program.find_function("main"), nullptr);
  EXPECT_EQ(program.find_function("nope"), nullptr);
}

TEST(Program, JumpTargetsTakeTheFirstBlockWithALabel) {
  AsmFunction fn{"main", {}};
  fn.blocks.push_back(
      {".a", {AsmInst(Op::kJmp, {Operand::make_label(".b")})}});
  fn.blocks.push_back(
      {".b",
       {AsmInst(Op::kJcc, Cond::kNe, {Operand::make_label(".a")}),
        AsmInst(Op::kJmp, {Operand::make_label(".nope")}),
        AsmInst(Op::kCall, {Operand::make_func(".a")}),
        AsmInst(Op::kRet, {})}});
  fn.blocks.push_back({".b", {}});
  const std::vector<std::vector<int>> expected = {{1}, {0, -1, -1, -1}, {}};
  EXPECT_EQ(jump_targets(fn), expected);
  EXPECT_EQ(fn.block_index(".b"), 1);
}

TEST(Effects, MovRegReg) {
  AsmInst inst(Op::kMov, {Operand::make_reg(Gpr::kRcx, 8),
                          Operand::make_reg(Gpr::kRax, 8)});
  RegEffects fx = effects_of(inst);
  ASSERT_EQ(fx.gpr_reads.size(), 1u);
  EXPECT_EQ(fx.gpr_reads[0], Gpr::kRcx);
  ASSERT_EQ(fx.gpr_writes.size(), 1u);
  EXPECT_EQ(fx.gpr_writes[0], Gpr::kRax);
  EXPECT_FALSE(fx.writes_flags);
}

TEST(Effects, StoreReadsAddressRegisters) {
  MemRef mem;
  mem.base = Gpr::kRbp;
  mem.index = Gpr::kRcx;
  AsmInst inst(Op::kMov, {Operand::make_reg(Gpr::kRax, 8),
                          Operand::make_mem(mem, 8)});
  RegEffects fx = effects_of(inst);
  EXPECT_TRUE(fx.writes_mem);
  // rax (data) + rbp, rcx (address) are all read.
  EXPECT_EQ(fx.gpr_reads.size(), 3u);
  EXPECT_TRUE(fx.gpr_writes.empty());
}

TEST(Effects, AluWritesFlagsAndDst) {
  AsmInst inst(Op::kAdd, {Operand::make_reg(Gpr::kRcx, 8),
                          Operand::make_reg(Gpr::kRax, 8)});
  RegEffects fx = effects_of(inst);
  EXPECT_TRUE(fx.writes_flags);
  ASSERT_EQ(fx.gpr_writes.size(), 1u);
  EXPECT_EQ(fx.gpr_writes[0], Gpr::kRax);
  EXPECT_EQ(fx.gpr_reads.size(), 2u);  // dst is also read (RMW)
}

TEST(Effects, SetccReadsFlags) {
  AsmInst inst(Op::kSetcc, Cond::kL, {Operand::make_reg(Gpr::kR11, 1)});
  RegEffects fx = effects_of(inst);
  EXPECT_TRUE(fx.reads_flags);
  EXPECT_FALSE(fx.writes_flags);
  ASSERT_EQ(fx.gpr_writes.size(), 1u);
}

TEST(Effects, PushPopTouchRsp) {
  AsmInst push(Op::kPush, {Operand::make_reg(Gpr::kRbx, 8)});
  RegEffects fx = effects_of(push);
  EXPECT_TRUE(fx.writes_mem);
  bool writes_rsp = false;
  for (Gpr reg : fx.gpr_writes) writes_rsp |= reg == Gpr::kRsp;
  EXPECT_TRUE(writes_rsp);

  AsmInst pop(Op::kPop, {Operand::make_reg(Gpr::kRbx, 8)});
  fx = effects_of(pop);
  EXPECT_TRUE(fx.reads_mem);
}

TEST(RoundTrip, ParsePrintedProgram) {
  AsmProgram program;
  program.globals.push_back({"data", 32, {}});
  AsmFunction fn;
  fn.name = "main";
  AsmBlock block;
  block.label = "entry";
  MemRef frame;
  frame.base = Gpr::kRbp;
  frame.disp = -8;
  block.insts.push_back(AsmInst(Op::kPush, {Operand::make_reg(Gpr::kRbp)}));
  block.insts.push_back(AsmInst(Op::kMov, {Operand::make_reg(Gpr::kRsp),
                                           Operand::make_reg(Gpr::kRbp)}));
  block.insts.push_back(AsmInst(Op::kMov, {Operand::make_imm(7, 4),
                                           Operand::make_mem(frame, 4)}));
  block.insts.push_back(AsmInst(Op::kCmp, {Operand::make_imm(0, 4),
                                           Operand::make_mem(frame, 4)}));
  block.insts.push_back(
      AsmInst(Op::kJcc, Cond::kNe, {Operand::make_label("entry")}));
  block.insts.push_back(AsmInst(Op::kRet, {}));
  fn.blocks.push_back(block);
  program.functions.push_back(fn);

  const std::string printed = print(program);
  DiagEngine diags;
  AsmProgram reparsed = parse_program(printed, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.render() << "\n" << printed;
  EXPECT_EQ(print(reparsed), printed);
}

TEST(RoundTrip, SimdInstructions) {
  const char* text =
      "main:\n"
      ".entry:\n"
      "\tmovq\t%rax, %xmm1\n"
      "\tpinsrq\t$1, %rdi, %xmm1\n"
      "\tvinserti128\t$1, %xmm2, %ymm0\n"
      "\tvpxor\t%ymm1, %ymm0, %ymm0\n"
      "\tvptest\t%ymm0, %ymm0\n"
      "\tjne\t.entry\n"
      "\tret\n";
  DiagEngine diags;
  AsmProgram program = parse_program(text, diags);
  ASSERT_FALSE(diags.has_errors()) << diags.render();
  const auto& insts = program.functions[0].blocks[0].insts;
  ASSERT_EQ(insts.size(), 7u);
  EXPECT_EQ(insts[0].op, Op::kMovq);
  EXPECT_EQ(insts[1].op, Op::kPinsrq);
  EXPECT_EQ(insts[2].op, Op::kVinserti128);
  EXPECT_EQ(insts[3].op, Op::kVpxor);
  EXPECT_TRUE(insts[3].ops[0].ymm);
  EXPECT_EQ(insts[4].op, Op::kVptest);
  EXPECT_EQ(insts[5].op, Op::kJcc);
  EXPECT_EQ(insts[5].cc, Cond::kNe);
}

TEST(ParserErrors, UnknownMnemonic) {
  DiagEngine diags;
  parse_program("main:\n.entry:\n\tbogus\t%rax\n", diags);
  EXPECT_TRUE(diags.has_errors());
}

TEST(ParserErrors, UnknownRegister) {
  DiagEngine diags;
  parse_program("main:\n.entry:\n\tmovq\t%rzz, %rax\n", diags);
  EXPECT_TRUE(diags.has_errors());
}

TEST(ParserDetect, FerrumDetectCall) {
  DiagEngine diags;
  AsmProgram program =
      parse_program("main:\n.entry:\n\tcall\t__ferrum_detect\n", diags);
  ASSERT_FALSE(diags.has_errors());
  EXPECT_EQ(program.functions[0].blocks[0].insts[0].op, Op::kDetectTrap);
}

}  // namespace
}  // namespace ferrum::masm
