// How each OpenMP construct maps onto the runtime, decided once for both
// backends (DESIGN.md S6). Each plan_* function reads one structured Omp*
// statement the directive engine left in the AST and returns a plain
// record; the interpreter maps it onto rt::Team calls and the code generator
// onto zomp_* text, and neither re-derives a decision. Only what one backend
// executes and the other prints stays per backend: the collapse odometer and
// the task capture packs.
#pragma once

#include <vector>

#include "lang/ast.h"
#include "lang/reduce_ops.h"

namespace zomp::core {

/// A worksharing loop (kOmpWsLoop).
struct LoopPlan {
  /// Chunks come from the dispatch ring (dynamic, guided, runtime or an
  /// `ordered` loop), not from the static block formula.
  bool dispatch = false;
  int schedule = 0;  ///< rt::ScheduleKind code for the dispatch ring
  bool track_last = false;  ///< lastprivate: did this thread run the last?
  /// A `cancel for` in the body binds here: the loop needs an escape to
  /// its closing barrier.
  bool cancel_escape = false;
};

LoopPlan plan_loop(const lang::Stmt& ws);

/// Where a member goes once a cancellation (or an abandoned barrier) hits.
enum class CancelEscape {
  kLeaveLoop,   ///< to the enclosing ws-loop's closing barrier
  kLeaveFrame,  ///< out of the outlined region or task body
  kFlagOnly,    ///< nowhere: the flag is set and the code runs on
};

/// `cancel` / `cancellation point`.
struct CancelPlan {
  int construct = 0;  ///< ZOMP_CANCEL_* code (1 parallel, 2 for, 4 taskgroup)
  CancelEscape escape = CancelEscape::kFlagOnly;
};

/// `in_cancel_loop`: the innermost ws-loop around the statement in the same
/// function has LoopPlan::cancel_escape. `outlined`: the function is a region
/// or task body. An orphaned construct (in a plain function) has no loop or
/// frame of its own to leave, so it is flag only.
CancelPlan plan_cancel(const lang::Stmt& cancel, bool in_cancel_loop,
                       bool outlined);

/// An abandoned barrier wait (cancel parallel) leaves an outlined region
/// body; in a plain function its result is dropped.
CancelEscape barrier_escape(bool outlined);

/// A task (kOmpTask).
struct TaskPlan {
  /// No clause at all, so the zero-clause entry point. An `if` clause is
  /// deliberately not: if(false) must run as an undeferred task (fresh
  /// context, children drained at the construct), not as a plain call.
  bool fast = true;
  /// ZOMP_TASK_* bits fixed at compile time (untied); `if` adds
  /// ZOMP_TASK_UNDEFERRED and `final` ZOMP_TASK_FINAL at creation.
  int flags = 0;
};

TaskPlan plan_task(const lang::Stmt& task);

/// A construct's one reduction combine: an item per list item, in payload
/// order (lang/reduce_ops.h).
struct ReducePlan {
  std::vector<lang::ReduceItem> items;
};

ReducePlan plan_reduce(const lang::Stmt& combine);

/// Payload element type of a reduction variable (a section: its element).
lang::ReduceType reduce_type(const lang::Type& type);

}  // namespace zomp::core
