#include "core/capture.h"

namespace zomp::core {

ModuleNames ModuleNames::collect(const lang::Module& module) {
  ModuleNames names;
  for (const auto& g : module.globals) {
    if (g->kind == lang::Stmt::Kind::kVarDecl) names.globals.insert(g->name);
  }
  for (const auto& fn : module.functions) names.functions.insert(fn->name);
  return names;
}

namespace {

using lang::Expr;
using lang::Stmt;

/// Scope-tracking walker. `bound` carries one set per lexical scope.
class FreeVarWalker {
 public:
  explicit FreeVarWalker(const ModuleNames& names) : names_(names) {}

  void walk_stmt(const Stmt& stmt) {
    switch (stmt.kind) {
      case Stmt::Kind::kBlock:
        push();
        for (const auto& s : stmt.stmts) walk_stmt(*s);
        pop();
        break;
      case Stmt::Kind::kVarDecl:
        if (stmt.init) walk_expr(*stmt.init);
        bind(stmt.name);
        break;
      case Stmt::Kind::kAssign:
        walk_expr(*stmt.lhs);
        walk_expr(*stmt.rhs);
        break;
      case Stmt::Kind::kExprStmt:
        walk_expr(*stmt.expr);
        break;
      case Stmt::Kind::kIf:
        walk_expr(*stmt.expr);
        walk_stmt(*stmt.then_block);
        if (stmt.else_block) walk_stmt(*stmt.else_block);
        break;
      case Stmt::Kind::kWhile:
        walk_expr(*stmt.expr);
        push();
        if (stmt.step) walk_stmt(*stmt.step);
        walk_stmt(*stmt.body);
        pop();
        break;
      case Stmt::Kind::kForRange:
        walk_expr(*stmt.expr);
        walk_expr(*stmt.rhs);
        push();
        bind(stmt.name);
        walk_stmt(*stmt.body);
        pop();
        break;
      case Stmt::Kind::kReturn:
        if (stmt.expr) walk_expr(*stmt.expr);
        break;
      case Stmt::Kind::kBreak:
      case Stmt::Kind::kContinue:
      case Stmt::Kind::kOmpBarrier:
      case Stmt::Kind::kOmpTaskwait:
      case Stmt::Kind::kOmpCancel:
      case Stmt::Kind::kOmpCancellationPoint:
        break;
      case Stmt::Kind::kOmpFork:
      case Stmt::Kind::kOmpTask:
      case Stmt::Kind::kOmpTaskloop:
        // A nested fork's captures are references from this region's body,
        // as are the tasking-clause expressions (evaluated at the creation
        // point in the enclosing scope).
        for (const auto& cap : stmt.captures) reference(cap.name, stmt.loc);
        if (stmt.num_threads) walk_expr(*stmt.num_threads);
        if (stmt.if_clause) walk_expr(*stmt.if_clause);
        for (const auto& dep : stmt.depends) walk_expr(*dep.item);
        if (stmt.final_clause) walk_expr(*stmt.final_clause);
        if (stmt.priority) walk_expr(*stmt.priority);
        if (stmt.grainsize) walk_expr(*stmt.grainsize);
        if (stmt.num_tasks) walk_expr(*stmt.num_tasks);
        if (stmt.kind == Stmt::Kind::kOmpTaskloop) {
          walk_expr(*stmt.expr);  // full-range bounds
          walk_expr(*stmt.rhs);
        }
        break;
      case Stmt::Kind::kOmpWsLoop:
        if (stmt.schedule.chunk) walk_expr(*stmt.schedule.chunk);
        // Collapsed dimensions bind their source loop variables over the
        // canonicalized body (backends re-declare them per iteration).
        push();
        for (const auto& dim : stmt.collapse) bind(dim.iv);
        walk_stmt(*stmt.body);
        pop();
        for (const auto& lp : stmt.lastprivate) {
          reference(lp.first, stmt.loc);
          reference(lp.second, stmt.loc);
        }
        break;
      case Stmt::Kind::kOmpCritical:
      case Stmt::Kind::kOmpSingle:
      case Stmt::Kind::kOmpMaster:
      case Stmt::Kind::kOmpAtomic:
      case Stmt::Kind::kOmpOrdered:
      case Stmt::Kind::kOmpTaskgroup:
        walk_stmt(*stmt.body);
        break;
      case Stmt::Kind::kOmpReductionInit:
        reference(stmt.target, stmt.loc);
        bind(stmt.name);
        break;
      case Stmt::Kind::kOmpReductionCombine:
        for (const auto& item : stmt.red_items) {
          reference(item.name, stmt.loc);
          reference(item.target, stmt.loc);
        }
        break;
      case Stmt::Kind::kOmpLastprivateWrite:
        reference(stmt.name, stmt.loc);
        reference(stmt.target, stmt.loc);
        break;
    }
  }

  void walk_expr(const Expr& expr) {
    if (expr.kind == Expr::Kind::kVarRef) {
      reference(expr.name, expr.loc);
      return;
    }
    for (const auto& a : expr.args) walk_expr(*a);
  }

  std::vector<FreeVar> take() { return std::move(ordered_); }

 private:
  void push() { scopes_.emplace_back(); }
  void pop() { scopes_.pop_back(); }
  void bind(const std::string& name) {
    if (scopes_.empty()) scopes_.emplace_back();
    scopes_.back().insert(name);
  }
  bool is_bound(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->contains(name)) return true;
    }
    return false;
  }
  void reference(const std::string& name, lang::SourceLoc loc) {
    if (is_bound(name)) return;
    if (names_.globals.contains(name) || names_.functions.contains(name)) return;
    if (seen_.insert(name).second) ordered_.push_back(FreeVar{name, loc});
  }

  const ModuleNames& names_;
  std::vector<std::unordered_set<std::string>> scopes_;
  std::unordered_set<std::string> seen_;
  std::vector<FreeVar> ordered_;
};

}  // namespace

std::vector<std::string> free_variables(const lang::Stmt& region,
                                        const ModuleNames& names) {
  std::vector<std::string> out;
  for (auto& fv : free_variables_detailed(region, names)) {
    out.push_back(std::move(fv.name));
  }
  return out;
}

std::vector<FreeVar> free_variables_detailed(const lang::Stmt& region,
                                             const ModuleNames& names) {
  FreeVarWalker walker(names);
  // The region body is walked without an implicit outer scope push, so
  // declarations at region top level count as bound — matching the OpenMP
  // rule that variables declared inside the construct are private to it.
  walker.walk_stmt(region);
  return walker.take();
}

}  // namespace zomp::core
