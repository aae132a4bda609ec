#include <gtest/gtest.h>

#include "frontend/parser.h"

namespace ferrum::minic {
namespace {

TranslationUnit parse_ok(std::string_view source) {
  DiagEngine diags;
  auto unit = parse(source, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.render();
  return unit;
}

bool parse_fails(std::string_view source) {
  DiagEngine diags;
  parse(source, diags);
  return diags.has_errors();
}

TEST(Parser, FunctionSignature) {
  auto unit = parse_ok("double f(int a, long b, double* p) { return 0.0; }");
  ASSERT_EQ(unit.functions.size(), 1u);
  const FunctionDecl& fn = unit.functions[0];
  EXPECT_EQ(fn.name, "f");
  EXPECT_EQ(fn.return_type, CType::double_type());
  ASSERT_EQ(fn.params.size(), 3u);
  EXPECT_EQ(fn.params[0].type, CType::int_type());
  EXPECT_EQ(fn.params[1].type, CType::long_type());
  EXPECT_EQ(fn.params[2].type, CType::pointer_to(CType::Base::kDouble));
}

TEST(Parser, GlobalScalarAndArray) {
  auto unit = parse_ok("int n = 5;\ndouble w[3] = {1.0, -2.0, 3.5};\nint z[7];");
  ASSERT_EQ(unit.globals.size(), 3u);
  EXPECT_EQ(unit.globals[0].name, "n");
  EXPECT_TRUE(unit.globals[0].has_init);
  EXPECT_EQ(unit.globals[0].int_init[0], 5);
  EXPECT_EQ(unit.globals[1].array_size, 3);
  EXPECT_DOUBLE_EQ(unit.globals[1].float_init[1], -2.0);
  EXPECT_EQ(unit.globals[2].array_size, 7);
  EXPECT_FALSE(unit.globals[2].has_init);
}

TEST(Parser, PrecedenceMulOverAdd) {
  auto unit = parse_ok("int f() { return 1 + 2 * 3; }");
  const Stmt& ret = *unit.functions[0].body->stmts[0];
  ASSERT_EQ(ret.kind, StmtKind::kReturn);
  const Expr& add = *ret.expr;
  ASSERT_EQ(add.kind, ExprKind::kBinary);
  EXPECT_EQ(add.binary_op, BinaryOp::kAdd);
  EXPECT_EQ(add.children[1]->binary_op, BinaryOp::kMul);
}

TEST(Parser, ComparisonBindsLooserThanShift) {
  auto unit = parse_ok("int f() { return 1 << 2 < 3; }");
  const Expr& cmp = *unit.functions[0].body->stmts[0]->expr;
  EXPECT_EQ(cmp.binary_op, BinaryOp::kLt);
  EXPECT_EQ(cmp.children[0]->binary_op, BinaryOp::kShl);
}

TEST(Parser, LogicalOrBindsLoosest) {
  auto unit = parse_ok("int f() { return 1 && 2 || 3 && 4; }");
  const Expr& expr = *unit.functions[0].body->stmts[0]->expr;
  EXPECT_EQ(expr.binary_op, BinaryOp::kLogicalOr);
  EXPECT_EQ(expr.children[0]->binary_op, BinaryOp::kLogicalAnd);
  EXPECT_EQ(expr.children[1]->binary_op, BinaryOp::kLogicalAnd);
}

TEST(Parser, AssignmentIsRightAssociative) {
  auto unit = parse_ok("int f() { int a; int b; a = b = 3; return a; }");
  const Expr& outer = *unit.functions[0].body->stmts[2]->expr;
  ASSERT_EQ(outer.kind, ExprKind::kAssign);
  EXPECT_EQ(outer.children[1]->kind, ExprKind::kAssign);
}

TEST(Parser, CompoundAssignments) {
  auto unit = parse_ok("int f() { int a = 1; a += 2; a -= 3; a *= 4; a /= 5; "
                       "a %= 6; return a; }");
  const auto& stmts = unit.functions[0].body->stmts;
  EXPECT_EQ(stmts[1]->expr->assign_op, AssignOp::kAdd);
  EXPECT_EQ(stmts[2]->expr->assign_op, AssignOp::kSub);
  EXPECT_EQ(stmts[3]->expr->assign_op, AssignOp::kMul);
  EXPECT_EQ(stmts[4]->expr->assign_op, AssignOp::kDiv);
  EXPECT_EQ(stmts[5]->expr->assign_op, AssignOp::kRem);
}

TEST(Parser, CastVersusParenthesisedExpression) {
  auto unit = parse_ok("int f() { return (int)(1.5) + (1 + 2); }");
  const Expr& add = *unit.functions[0].body->stmts[0]->expr;
  EXPECT_EQ(add.children[0]->kind, ExprKind::kCast);
  EXPECT_EQ(add.children[0]->cast_type, CType::int_type());
  EXPECT_EQ(add.children[1]->kind, ExprKind::kBinary);
}

TEST(Parser, UnaryChains) {
  auto unit = parse_ok("int f() { int a = 1; return -~!a; }");
  const Expr& neg = *unit.functions[0].body->stmts[1]->expr;
  ASSERT_EQ(neg.kind, ExprKind::kUnary);
  EXPECT_EQ(neg.unary_op, UnaryOp::kNeg);
  EXPECT_EQ(neg.children[0]->unary_op, UnaryOp::kBitNot);
  EXPECT_EQ(neg.children[0]->children[0]->unary_op, UnaryOp::kNot);
}

TEST(Parser, PostfixAndPrefixIncrement) {
  auto unit = parse_ok("int f() { int a = 0; a++; ++a; a--; --a; return a; }");
  const auto& stmts = unit.functions[0].body->stmts;
  EXPECT_EQ(stmts[1]->expr->kind, ExprKind::kPostfix);
  EXPECT_TRUE(stmts[1]->expr->postfix_increment);
  EXPECT_EQ(stmts[2]->expr->kind, ExprKind::kUnary);
  EXPECT_EQ(stmts[2]->expr->unary_op, UnaryOp::kPreInc);
  EXPECT_FALSE(stmts[3]->expr->postfix_increment);
  EXPECT_EQ(stmts[4]->expr->unary_op, UnaryOp::kPreDec);
}

TEST(Parser, IndexingChains) {
  auto unit = parse_ok("int f(int* p) { return p[p[0]]; }");
  const Expr& outer = *unit.functions[0].body->stmts[0]->expr;
  ASSERT_EQ(outer.kind, ExprKind::kIndex);
  EXPECT_EQ(outer.children[1]->kind, ExprKind::kIndex);
}

TEST(Parser, ForLoopPieces) {
  auto unit = parse_ok("int f() { for (int i = 0; i < 4; i++) { } return 0; }");
  const Stmt& loop = *unit.functions[0].body->stmts[0];
  ASSERT_EQ(loop.kind, StmtKind::kFor);
  EXPECT_NE(loop.init_stmt, nullptr);
  EXPECT_NE(loop.cond, nullptr);
  EXPECT_NE(loop.step, nullptr);
  EXPECT_NE(loop.body, nullptr);
}

TEST(Parser, ForLoopAllPiecesOptional) {
  auto unit = parse_ok("int f() { for (;;) { break; } return 0; }");
  const Stmt& loop = *unit.functions[0].body->stmts[0];
  EXPECT_EQ(loop.init_stmt, nullptr);
  EXPECT_EQ(loop.cond, nullptr);
  EXPECT_EQ(loop.step, nullptr);
}

TEST(Parser, IfElseChain) {
  auto unit = parse_ok(
      "int f(int x) { if (x > 0) return 1; else if (x < 0) return -1; "
      "else return 0; }");
  const Stmt& outer = *unit.functions[0].body->stmts[0];
  ASSERT_EQ(outer.kind, StmtKind::kIf);
  ASSERT_NE(outer.else_body, nullptr);
  EXPECT_EQ(outer.else_body->kind, StmtKind::kIf);
}

TEST(Parser, CallWithArguments) {
  auto unit = parse_ok("int g(int a, int b) { return a; } "
                       "int f() { return g(1, 2 + 3); }");
  const Expr& call = *unit.functions[1].body->stmts[0]->expr;
  ASSERT_EQ(call.kind, ExprKind::kCall);
  EXPECT_EQ(call.name, "g");
  EXPECT_EQ(call.children.size(), 2u);
}

TEST(Parser, LocalArrayDeclaration) {
  auto unit = parse_ok("int f() { int buf[16]; buf[3] = 1; return buf[3]; }");
  const Stmt& decl = *unit.functions[0].body->stmts[0];
  EXPECT_EQ(decl.kind, StmtKind::kDecl);
  EXPECT_EQ(decl.array_size, 16);
}

TEST(Parser, ErrorMissingSemicolon) {
  EXPECT_TRUE(parse_fails("int f() { return 1 }"));
}

TEST(Parser, ErrorUnbalancedParens) {
  EXPECT_TRUE(parse_fails("int f() { return (1 + 2; }"));
}

TEST(Parser, ErrorBadTopLevel) {
  EXPECT_TRUE(parse_fails("42;"));
}

TEST(Parser, ErrorVoidVariable) {
  EXPECT_TRUE(parse_fails("int f() { void x; return 0; }"));
}

TEST(Parser, ErrorNegativeArraySize) {
  EXPECT_TRUE(parse_fails("int g[0];"));
}

TEST(Parser, ErrorLocalArrayInitialiser) {
  EXPECT_TRUE(parse_fails("int f() { int a[2] = 1; return 0; }"));
}

// ------------------------------------------------------ nesting budget --

/// `int f() { int x = 0; <body> return x; }` on one line; the body starts
/// at column kBodyColumn.
std::string in_function(const std::string& body) {
  return "int f() { int x = 0; " + body + " return x; }";
}
constexpr int kBodyColumn = 22;

/// `text` repeated `n` times.
std::string repeat(const std::string& text, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += text;
  return out;
}

/// The one diagnostic a nesting overrun leaves, or a failure.
Diagnostic overrun_of(const std::string& source) {
  DiagEngine diags;
  parse(source, diags);
  EXPECT_EQ(diags.error_count(), 1) << diags.render().substr(0, 400);
  if (diags.diagnostics().empty()) return {};
  const Diagnostic& diag = diags.diagnostics().front();
  EXPECT_NE(diag.message.find("depth budget"), std::string::npos)
      << diag.message;
  EXPECT_EQ(diag.loc.line, 1);
  return diag;
}

TEST(Parser, DeepNestingIsADiagnosticNotACrash) {
  // 20,000 parenthesised levels (about 40 KB) overflowed the stack of
  // the recursive descent. The budget stops the parse at the paren where
  // it runs out — two units per level, so a few short of level 500 —
  // with one diagnostic and no cascade of "expected ')'" errors.
  const std::string parens = in_function(
      "x = " + std::string(20'000, '(') + "1" + std::string(20'000, ')') + ";");
  const Diagnostic diag = overrun_of(parens);
  const int first_paren = kBodyColumn + 4;
  EXPECT_GT(diag.loc.column, first_paren + 490);
  EXPECT_LT(diag.loc.column, first_paren + 500);
  EXPECT_EQ(parens[static_cast<std::size_t>(diag.loc.column - 1)], '(');

  // Every recursive shape spends the same budget.
  overrun_of(in_function("x = " + std::string(5'000, '-') + "x;"));
  overrun_of(in_function(repeat("x = ", 5'000) + "1;"));
  overrun_of(in_function(repeat("(int)", 5'000) + "x;"));
  overrun_of(in_function(std::string(5'000, '{') + std::string(5'000, '}')));
  overrun_of(in_function(repeat("if (x) ", 5'000) + "x = 1;"));
  overrun_of(in_function("x = " + repeat("g(", 5'000) + "1" +
                         std::string(5'000, ')') + ";"));
}

TEST(Parser, LongOperatorChainsSpendTheBudgetToo) {
  // `x + x + ...` and `x[0][0]...` loop in the parser but build a
  // left-deep tree whose walkers recurse once per operator, so each
  // operator spends one unit: the overrun lands a little short of the
  // 1,000th " + x".
  const std::string sum = in_function("x = x" + repeat(" + x", 5'000) + ";");
  const Diagnostic diag = overrun_of(sum);
  const int first_plus = kBodyColumn + 6;
  EXPECT_GT(diag.loc.column, first_plus + 4 * 990);
  EXPECT_LT(diag.loc.column, first_plus + 4 * 1'000);
  overrun_of(in_function("x = x" + repeat("[0]", 5'000) + ";"));
}

TEST(Parser, NestingWithinTheBudgetParses) {
  // Far deeper than any real program, still well inside the budget.
  parse_ok(in_function("x = " + std::string(300, '(') + "1" +
                       std::string(300, ')') + ";"));
  parse_ok(in_function("x = " + std::string(600, '-') + "x;"));
  parse_ok(in_function("x = x" + repeat(" + x", 600) + ";"));
  parse_ok(in_function(std::string(600, '{') + std::string(600, '}')));
  // The budget is a depth, not a count: many shallow statements and
  // expressions in sequence never add up.
  parse_ok(in_function(repeat("{ x = (x + 1) * -(x - 2); } ", 5'000)));
}

}  // namespace
}  // namespace ferrum::minic
