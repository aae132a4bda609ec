#include "frontend/parser.h"

#include <string>

#include "frontend/lexer.h"

namespace ferrum::minic {

std::string CType::to_string() const {
  std::string out;
  switch (base) {
    case Base::kVoid: out = "void"; break;
    case Base::kInt: out = "int"; break;
    case Base::kLong: out = "long"; break;
    case Base::kDouble: out = "double"; break;
  }
  if (is_pointer) out += "*";
  return out;
}

namespace {

/// Thrown once the nesting budget is spent; the diagnostic is already
/// reported, and run() abandons the rest of the input.
struct NestingOverrun {};

class Parser {
 public:
  Parser(std::vector<Token> tokens, DiagEngine& diags)
      : tokens_(std::move(tokens)), diags_(diags) {}

  TranslationUnit run() {
    TranslationUnit unit;
    try {
      while (!at(Tok::kEof)) {
        parse_top_level(unit);
        if (diags_.error_count() > 20) break;  // avoid error avalanches
      }
    } catch (const NestingOverrun&) {
    }
    return unit;
  }

 private:
  /// Nesting budget: the deepest tree the parser builds. The recursive
  /// entry points (assignment expressions, unary/cast chains, statements)
  /// spend one unit each while they run, and the loops that wrap the tree
  /// built so far (binary-operator chains, postfix chains) one per wrap,
  /// so that no input can recurse deep enough to overflow the stack, here
  /// or in the passes that walk the tree. A parenthesised level spends
  /// two units (its expression and its unary operand); nothing the
  /// workloads or tests contain comes near.
  static constexpr int kMaxNesting = 1000;

  /// A share of the nesting budget, held until the enclosing function
  /// returns. An overrun is reported at the current token and abandons
  /// the parse.
  class Nested {
   public:
    explicit Nested(Parser& parser, int units = 1) : parser_(parser) {
      for (int i = 0; i < units; ++i) deepen();
    }
    ~Nested() { parser_.nesting_ -= held_; }
    Nested(const Nested&) = delete;
    Nested& operator=(const Nested&) = delete;

    /// Holds one more unit.
    void deepen() {
      ++held_;
      if (++parser_.nesting_ > kMaxNesting) {
        parser_.diags_.error(parser_.cur().loc,
                             "nesting exceeds the parser's depth budget of " +
                                 std::to_string(kMaxNesting));
        throw NestingOverrun{};
      }
    }

   private:
    Parser& parser_;
    int held_ = 0;
  };

  const Token& cur() const { return tokens_[pos_]; }
  const Token& ahead(std::size_t n) const {
    return tokens_[std::min(pos_ + n, tokens_.size() - 1)];
  }
  bool at(Tok kind) const { return cur().kind == kind; }
  Token take() { return tokens_[pos_ == tokens_.size() - 1 ? pos_ : pos_++]; }
  bool accept(Tok kind) {
    if (!at(kind)) return false;
    take();
    return true;
  }
  Token expect(Tok kind) {
    if (at(kind)) return take();
    diags_.error(cur().loc, std::string("expected '") + tok_name(kind) +
                                "', found '" + tok_name(cur().kind) + "'");
    return cur();
  }

  bool at_type() const {
    return at(Tok::kKwInt) || at(Tok::kKwLong) || at(Tok::kKwDouble) ||
           at(Tok::kKwVoid);
  }

  CType parse_type() {
    CType type;
    switch (cur().kind) {
      case Tok::kKwInt: type.base = CType::Base::kInt; break;
      case Tok::kKwLong: type.base = CType::Base::kLong; break;
      case Tok::kKwDouble: type.base = CType::Base::kDouble; break;
      case Tok::kKwVoid: type.base = CType::Base::kVoid; break;
      default:
        diags_.error(cur().loc, "expected a type name");
        return type;
    }
    take();
    if (accept(Tok::kStar)) type.is_pointer = true;
    return type;
  }

  void parse_top_level(TranslationUnit& unit) {
    if (!at_type()) {
      diags_.error(cur().loc, "expected a declaration");
      take();
      return;
    }
    CType type = parse_type();
    Token name = expect(Tok::kIdent);
    if (at(Tok::kLParen)) {
      unit.functions.push_back(parse_function(type, name));
    } else {
      parse_global(unit, type, name);
    }
  }

  FunctionDecl parse_function(CType return_type, const Token& name) {
    FunctionDecl fn;
    fn.return_type = return_type;
    fn.name = name.text;
    fn.loc = name.loc;
    expect(Tok::kLParen);
    if (!at(Tok::kRParen)) {
      do {
        ParamDecl param;
        param.type = parse_type();
        Token pname = expect(Tok::kIdent);
        param.name = pname.text;
        param.loc = pname.loc;
        if (param.type.base == CType::Base::kVoid && !param.type.is_pointer) {
          diags_.error(param.loc, "parameter cannot have type void");
        }
        fn.params.push_back(std::move(param));
      } while (accept(Tok::kComma));
    }
    expect(Tok::kRParen);
    fn.body = parse_block();
    return fn;
  }

  void parse_global(TranslationUnit& unit, CType type, const Token& name) {
    GlobalDecl global;
    global.type = type;
    global.name = name.text;
    global.loc = name.loc;
    if (accept(Tok::kLBracket)) {
      Token size = expect(Tok::kIntLit);
      global.array_size = size.int_value;
      expect(Tok::kRBracket);
      if (global.array_size <= 0) {
        diags_.error(size.loc, "array size must be positive");
      }
    }
    if (accept(Tok::kAssign)) {
      global.has_init = true;
      if (global.array_size > 0) {
        expect(Tok::kLBrace);
        if (!at(Tok::kRBrace)) {
          do {
            parse_global_init_value(global);
          } while (accept(Tok::kComma));
        }
        expect(Tok::kRBrace);
      } else {
        parse_global_init_value(global);
      }
    }
    expect(Tok::kSemi);
    unit.globals.push_back(std::move(global));
  }

  void parse_global_init_value(GlobalDecl& global) {
    bool negate = accept(Tok::kMinus);
    if (at(Tok::kFloatLit)) {
      Token lit = take();
      global.float_init.push_back(negate ? -lit.float_value
                                         : lit.float_value);
      global.int_init.push_back(0);
    } else {
      Token lit = expect(Tok::kIntLit);
      global.int_init.push_back(negate ? -lit.int_value : lit.int_value);
      global.float_init.push_back(0.0);
    }
  }

  // -------------------------------------------------------- statements --

  std::unique_ptr<Stmt> parse_block() {
    auto block = std::make_unique<Stmt>();
    block->kind = StmtKind::kBlock;
    block->loc = cur().loc;
    expect(Tok::kLBrace);
    while (!at(Tok::kRBrace) && !at(Tok::kEof)) {
      block->stmts.push_back(parse_stmt());
      if (diags_.error_count() > 20) break;
    }
    expect(Tok::kRBrace);
    return block;
  }

  std::unique_ptr<Stmt> parse_stmt() {
    const Nested nested(*this);
    if (at(Tok::kLBrace)) return parse_block();
    if (at_type()) return parse_decl_stmt();
    auto stmt = std::make_unique<Stmt>();
    stmt->loc = cur().loc;
    switch (cur().kind) {
      case Tok::kSemi:
        take();
        stmt->kind = StmtKind::kEmpty;
        return stmt;
      case Tok::kKwIf: {
        take();
        stmt->kind = StmtKind::kIf;
        expect(Tok::kLParen);
        stmt->cond = parse_expr();
        expect(Tok::kRParen);
        stmt->body = parse_stmt();
        if (accept(Tok::kKwElse)) stmt->else_body = parse_stmt();
        return stmt;
      }
      case Tok::kKwWhile: {
        take();
        stmt->kind = StmtKind::kWhile;
        expect(Tok::kLParen);
        stmt->cond = parse_expr();
        expect(Tok::kRParen);
        stmt->body = parse_stmt();
        return stmt;
      }
      case Tok::kKwFor: {
        take();
        stmt->kind = StmtKind::kFor;
        expect(Tok::kLParen);
        if (!at(Tok::kSemi)) {
          if (at_type()) {
            stmt->init_stmt = parse_decl_stmt();  // consumes ';'
          } else {
            auto init = std::make_unique<Stmt>();
            init->kind = StmtKind::kExpr;
            init->loc = cur().loc;
            init->expr = parse_expr();
            expect(Tok::kSemi);
            stmt->init_stmt = std::move(init);
          }
        } else {
          take();
        }
        if (!at(Tok::kSemi)) stmt->cond = parse_expr();
        expect(Tok::kSemi);
        if (!at(Tok::kRParen)) stmt->step = parse_expr();
        expect(Tok::kRParen);
        stmt->body = parse_stmt();
        return stmt;
      }
      case Tok::kKwReturn: {
        take();
        stmt->kind = StmtKind::kReturn;
        if (!at(Tok::kSemi)) stmt->expr = parse_expr();
        expect(Tok::kSemi);
        return stmt;
      }
      case Tok::kKwBreak:
        take();
        stmt->kind = StmtKind::kBreak;
        expect(Tok::kSemi);
        return stmt;
      case Tok::kKwContinue:
        take();
        stmt->kind = StmtKind::kContinue;
        expect(Tok::kSemi);
        return stmt;
      default: {
        stmt->kind = StmtKind::kExpr;
        stmt->expr = parse_expr();
        expect(Tok::kSemi);
        return stmt;
      }
    }
  }

  std::unique_ptr<Stmt> parse_decl_stmt() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = StmtKind::kDecl;
    stmt->loc = cur().loc;
    stmt->decl_type = parse_type();
    Token name = expect(Tok::kIdent);
    stmt->decl_name = name.text;
    if (stmt->decl_type.base == CType::Base::kVoid &&
        !stmt->decl_type.is_pointer) {
      diags_.error(stmt->loc, "variable cannot have type void");
    }
    if (accept(Tok::kLBracket)) {
      Token size = expect(Tok::kIntLit);
      stmt->array_size = size.int_value;
      expect(Tok::kRBracket);
      if (stmt->array_size <= 0) {
        diags_.error(size.loc, "array size must be positive");
      }
    }
    if (accept(Tok::kAssign)) {
      if (stmt->array_size > 0) {
        diags_.error(cur().loc, "local array initialisers are not supported");
      }
      stmt->decl_init = parse_expr();
    }
    expect(Tok::kSemi);
    return stmt;
  }

  // ------------------------------------------------------- expressions --

  std::unique_ptr<Expr> parse_expr() { return parse_assign(); }

  std::unique_ptr<Expr> parse_assign() {
    const Nested nested(*this);
    auto lhs = parse_binary(0);
    AssignOp op;
    switch (cur().kind) {
      case Tok::kAssign: op = AssignOp::kPlain; break;
      case Tok::kPlusAssign: op = AssignOp::kAdd; break;
      case Tok::kMinusAssign: op = AssignOp::kSub; break;
      case Tok::kStarAssign: op = AssignOp::kMul; break;
      case Tok::kSlashAssign: op = AssignOp::kDiv; break;
      case Tok::kPercentAssign: op = AssignOp::kRem; break;
      default:
        return lhs;
    }
    Token token = take();
    auto rhs = parse_assign();  // right associative
    auto expr = std::make_unique<Expr>();
    expr->kind = ExprKind::kAssign;
    expr->loc = token.loc;
    expr->assign_op = op;
    expr->children.push_back(std::move(lhs));
    expr->children.push_back(std::move(rhs));
    return expr;
  }

  static int precedence_of(Tok kind) {
    switch (kind) {
      case Tok::kStar:
      case Tok::kSlash:
      case Tok::kPercent: return 10;
      case Tok::kPlus:
      case Tok::kMinus: return 9;
      case Tok::kShl:
      case Tok::kShr: return 8;
      case Tok::kLt:
      case Tok::kLe:
      case Tok::kGt:
      case Tok::kGe: return 7;
      case Tok::kEq:
      case Tok::kNe: return 6;
      case Tok::kAmp: return 5;
      case Tok::kCaret: return 4;
      case Tok::kPipe: return 3;
      case Tok::kAndAnd: return 2;
      case Tok::kOrOr: return 1;
      default: return -1;
    }
  }

  static BinaryOp binary_op_of(Tok kind) {
    switch (kind) {
      case Tok::kStar: return BinaryOp::kMul;
      case Tok::kSlash: return BinaryOp::kDiv;
      case Tok::kPercent: return BinaryOp::kRem;
      case Tok::kPlus: return BinaryOp::kAdd;
      case Tok::kMinus: return BinaryOp::kSub;
      case Tok::kShl: return BinaryOp::kShl;
      case Tok::kShr: return BinaryOp::kShr;
      case Tok::kLt: return BinaryOp::kLt;
      case Tok::kLe: return BinaryOp::kLe;
      case Tok::kGt: return BinaryOp::kGt;
      case Tok::kGe: return BinaryOp::kGe;
      case Tok::kEq: return BinaryOp::kEq;
      case Tok::kNe: return BinaryOp::kNe;
      case Tok::kAmp: return BinaryOp::kAnd;
      case Tok::kCaret: return BinaryOp::kXor;
      case Tok::kPipe: return BinaryOp::kOr;
      case Tok::kAndAnd: return BinaryOp::kLogicalAnd;
      case Tok::kOrOr: return BinaryOp::kLogicalOr;
      default: return BinaryOp::kAdd;
    }
  }

  std::unique_ptr<Expr> parse_binary(int min_precedence) {
    auto lhs = parse_unary();
    Nested chain(*this, 0);
    for (;;) {
      int precedence = precedence_of(cur().kind);
      if (precedence < min_precedence || precedence < 0) return lhs;
      chain.deepen();
      Token op = take();
      auto rhs = parse_binary(precedence + 1);
      auto expr = std::make_unique<Expr>();
      expr->kind = ExprKind::kBinary;
      expr->loc = op.loc;
      expr->binary_op = binary_op_of(op.kind);
      expr->children.push_back(std::move(lhs));
      expr->children.push_back(std::move(rhs));
      lhs = std::move(expr);
    }
  }

  std::unique_ptr<Expr> parse_unary() {
    const Nested nested(*this);
    auto make_unary = [&](UnaryOp op) {
      Token token = take();
      auto expr = std::make_unique<Expr>();
      expr->kind = ExprKind::kUnary;
      expr->loc = token.loc;
      expr->unary_op = op;
      expr->children.push_back(parse_unary());
      return expr;
    };
    switch (cur().kind) {
      case Tok::kMinus: return make_unary(UnaryOp::kNeg);
      case Tok::kBang: return make_unary(UnaryOp::kNot);
      case Tok::kTilde: return make_unary(UnaryOp::kBitNot);
      case Tok::kPlusPlus: return make_unary(UnaryOp::kPreInc);
      case Tok::kMinusMinus: return make_unary(UnaryOp::kPreDec);
      case Tok::kLParen:
        // A cast: '(' type ')' unary — distinguished from parenthesised
        // expressions by the type keyword.
        if (ahead(1).kind == Tok::kKwInt || ahead(1).kind == Tok::kKwLong ||
            ahead(1).kind == Tok::kKwDouble ||
            ahead(1).kind == Tok::kKwVoid) {
          Token paren = take();
          CType type = parse_type();
          expect(Tok::kRParen);
          auto expr = std::make_unique<Expr>();
          expr->kind = ExprKind::kCast;
          expr->loc = paren.loc;
          expr->cast_type = type;
          expr->children.push_back(parse_unary());
          return expr;
        }
        return parse_postfix();
      default:
        return parse_postfix();
    }
  }

  std::unique_ptr<Expr> parse_postfix() {
    auto expr = parse_primary();
    Nested chain(*this, 0);
    for (;;) {
      if (at(Tok::kLBracket)) {
        chain.deepen();
        Token token = take();
        auto index = std::make_unique<Expr>();
        index->kind = ExprKind::kIndex;
        index->loc = token.loc;
        index->children.push_back(std::move(expr));
        index->children.push_back(parse_expr());
        expect(Tok::kRBracket);
        expr = std::move(index);
      } else if (at(Tok::kPlusPlus) || at(Tok::kMinusMinus)) {
        chain.deepen();
        Token token = take();
        auto post = std::make_unique<Expr>();
        post->kind = ExprKind::kPostfix;
        post->loc = token.loc;
        post->postfix_increment = token.kind == Tok::kPlusPlus;
        post->children.push_back(std::move(expr));
        expr = std::move(post);
      } else {
        return expr;
      }
    }
  }

  std::unique_ptr<Expr> parse_primary() {
    auto expr = std::make_unique<Expr>();
    expr->loc = cur().loc;
    switch (cur().kind) {
      case Tok::kIntLit: {
        Token lit = take();
        expr->kind = ExprKind::kIntLit;
        expr->int_value = lit.int_value;
        expr->is_long_literal = lit.text == "L";
        return expr;
      }
      case Tok::kFloatLit: {
        Token lit = take();
        expr->kind = ExprKind::kFloatLit;
        expr->float_value = lit.float_value;
        return expr;
      }
      case Tok::kIdent: {
        Token name = take();
        if (at(Tok::kLParen)) {
          take();
          expr->kind = ExprKind::kCall;
          expr->name = name.text;
          if (!at(Tok::kRParen)) {
            do {
              expr->children.push_back(parse_expr());
            } while (accept(Tok::kComma));
          }
          expect(Tok::kRParen);
          return expr;
        }
        expr->kind = ExprKind::kVarRef;
        expr->name = name.text;
        return expr;
      }
      case Tok::kLParen: {
        take();
        auto inner = parse_expr();
        expect(Tok::kRParen);
        return inner;
      }
      default:
        diags_.error(cur().loc, std::string("expected an expression, found '") +
                                    tok_name(cur().kind) + "'");
        take();
        expr->kind = ExprKind::kIntLit;
        return expr;
    }
  }

  std::vector<Token> tokens_;
  DiagEngine& diags_;
  std::size_t pos_ = 0;
  int nesting_ = 0;
};

}  // namespace

TranslationUnit parse(std::string_view source, DiagEngine& diags) {
  std::vector<Token> tokens = lex(source, diags);
  return Parser(std::move(tokens), diags).run();
}

}  // namespace ferrum::minic
