#include "core/lower.h"

#include "runtime/abi.h"
#include "runtime/schedule.h"

namespace zomp::core {

using lang::ScheduleSpec;
using lang::Stmt;

namespace {

/// Does this subtree hold a `cancel for` / `cancellation point for`? Nested
/// ws-loops are skipped: a cancel inside one binds there.
bool has_cancel_for(const Stmt& stmt) {
  if ((stmt.kind == Stmt::Kind::kOmpCancel ||
       stmt.kind == Stmt::Kind::kOmpCancellationPoint) &&
      stmt.cancel_construct == ZOMP_CANCEL_LOOP) {
    return true;
  }
  if (stmt.kind == Stmt::Kind::kOmpWsLoop) return false;
  for (const auto& s : stmt.stmts) {
    if (has_cancel_for(*s)) return true;
  }
  for (const Stmt* child : {stmt.then_block.get(), stmt.else_block.get(),
                            stmt.step.get(), stmt.body.get()}) {
    if (child != nullptr && has_cancel_for(*child)) return true;
  }
  return false;
}

}  // namespace

LoopPlan plan_loop(const Stmt& ws) {
  LoopPlan plan;
  rt::ScheduleKind kind = rt::ScheduleKind::kStatic;
  switch (ws.schedule.kind) {
    case ScheduleSpec::Kind::kUnspecified:
    case ScheduleSpec::Kind::kStatic: break;
    case ScheduleSpec::Kind::kDynamic: kind = rt::ScheduleKind::kDynamic; break;
    case ScheduleSpec::Kind::kGuided: kind = rt::ScheduleKind::kGuided; break;
    case ScheduleSpec::Kind::kAuto: kind = rt::ScheduleKind::kAuto; break;
    case ScheduleSpec::Kind::kRuntime: kind = rt::ScheduleKind::kRuntime; break;
  }
  plan.dispatch = ws.ordered || kind == rt::ScheduleKind::kDynamic ||
                  kind == rt::ScheduleKind::kGuided ||
                  kind == rt::ScheduleKind::kRuntime;
  plan.schedule = static_cast<int>(kind);
  plan.track_last = !ws.lastprivate.empty();
  plan.cancel_escape = has_cancel_for(*ws.body->body);
  return plan;
}

CancelPlan plan_cancel(const Stmt& cancel, bool in_cancel_loop,
                       bool outlined) {
  CancelPlan plan;
  plan.construct = cancel.cancel_construct;
  if (plan.construct != ZOMP_CANCEL_LOOP) {
    // Cancelled parallel members return to the region join, cancelled
    // taskgroup tasks to their task's end: the outlined frame either way.
    plan.escape = barrier_escape(outlined);
  } else if (in_cancel_loop) {
    plan.escape = CancelEscape::kLeaveLoop;
  }
  return plan;
}

CancelEscape barrier_escape(bool outlined) {
  return outlined ? CancelEscape::kLeaveFrame : CancelEscape::kFlagOnly;
}

TaskPlan plan_task(const Stmt& task) {
  TaskPlan plan;
  plan.fast = task.depends.empty() && task.final_clause == nullptr &&
              task.priority == nullptr && !task.untied &&
              task.if_clause == nullptr;
  if (task.untied) plan.flags |= ZOMP_TASK_UNTIED;
  return plan;
}

ReducePlan plan_reduce(const Stmt& combine) {
  ReducePlan plan;
  for (const auto& item : combine.red_items) {
    plan.items.push_back(lang::ReduceItem{
        item.op, reduce_type(item.symbol->type), item.len != nullptr});
  }
  return plan;
}

lang::ReduceType reduce_type(const lang::Type& type) {
  const lang::Type t = type.is_slice() ? type.element() : type;
  if (t.is_f64()) return lang::ReduceType::kF64;
  return t.is_bool() ? lang::ReduceType::kBool : lang::ReduceType::kI64;
}

}  // namespace zomp::core
