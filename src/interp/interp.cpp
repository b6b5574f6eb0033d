#include "interp/interp.h"

#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>

#include "core/lower.h"
#include "lang/reduce_ops.h"
#include "runtime/abi.h"
#include "runtime/hl.h"
#include "runtime/pool.h"
#include "runtime/sync.h"
#include "runtime/team.h"
#include "runtime/worksharing.h"

namespace zomp::interp {

using lang::BinOp;
using lang::Builtin;
using lang::CaptureMode;
using lang::Expr;
using lang::FnDecl;
using lang::Stmt;
using lang::Symbol;
using lang::UnOp;

namespace {

[[noreturn]] void panic(const lang::SourceLoc& loc, const std::string& what) {
  std::fprintf(stderr, "mz panic (interp) at line %u: %s\n", loc.line,
               what.c_str());
  std::abort();
}

template <typename R, typename... A, std::size_t... I>
Value call_host(R (*fn)(A...), const std::vector<Value>& args,
                std::index_sequence<I...>) {
  if constexpr (std::is_void_v<R>) {
    fn(std::get<A>(args.at(I).v)...);
    return Value();
  } else {
    return Value(fn(std::get<A>(args.at(I).v)...));
  }
}

/// Adapts a C entry point over MiniZig scalars (i64/f64/bool arguments and
/// result, or void) to a host binding, so an `extern fn` call runs the very
/// function generated code links against.
template <typename R, typename... A>
Interp::HostFn host_binding(R (*fn)(A...)) {
  return [fn](std::vector<Value>& args) {
    return call_host(fn, args, std::index_sequence_for<A...>{});
  };
}

/// A scalar as one reduction payload word (lang/reduce_ops.h layout).
lang::ReduceWord to_word(const Value& v, const lang::SourceLoc& loc) {
  using lang::to_reduce_word;
  if (const auto* i = std::get_if<std::int64_t>(&v.v)) {
    return to_reduce_word(*i);
  }
  if (const auto* f = std::get_if<double>(&v.v)) return to_reduce_word(*f);
  if (const auto* b = std::get_if<bool>(&v.v)) return to_reduce_word(*b);
  panic(loc, "reduction over non-scalar value");
}

Value from_word(lang::ReduceType type, lang::ReduceWord w) {
  return lang::with_reduce_type(type, [w](auto t) {
    return Value(lang::from_reduce_word<decltype(t)>(w));
  });
}

/// The tree's combine function; the construct's plan rides as ctx.
void combine_payloads(void* plan, void* lhs, const void* rhs) {
  const auto& items = static_cast<const core::ReducePlan*>(plan)->items;
  lang::reduce_pack_combine(items.data(), items.size(), lhs, rhs);
}

}  // namespace

// ---------------------------------------------------------------------------
// Exec: one function activation (one thread, one frame)
// ---------------------------------------------------------------------------

class Exec {
 public:
  /// kCancelLoop is the `cancel for` escape: it unwinds like kReturn until
  /// the innermost enclosing kOmpWsLoop catches it and drains to the loop's
  /// closing barrier (the interpreter twin of codegen's goto-label escape).
  enum class Flow { kNormal, kBreak, kContinue, kReturn, kCancelLoop };

  Exec(Interp& interp, const FnDecl& fn) : interp_(interp), fn_(fn) {}

  /// Binds parameters: `cells[i]` is aliased for indirect params and copied
  /// for value params (per-thread copies are made by the caller's closure).
  void bind_params(const std::vector<Cell>& cells) {
    for (std::size_t i = 0; i < fn_.params.size(); ++i) {
      const lang::Param& p = fn_.params[i];
      if (p.indirect) {
        frame_[p.symbol] = cells[i];
      } else {
        frame_[p.symbol] = make_cell(*cells[i]);
      }
    }
  }

  Value run() {
    if (fn_.body) exec_stmt(*fn_.body);
    return std::move(return_value_);
  }

  /// Evaluates one expression in this activation's scope (used for global
  /// initialisers, which see earlier globals but no locals).
  Value eval_expr(const Expr& e) { return eval(e); }

  /// Zero value of `type` (public for global initialisation).
  Value zero_of(const lang::Type& type) { return default_value(type); }

 private:
  // -- Frame -------------------------------------------------------------------

  Cell& cell_of(const Symbol* sym, const lang::SourceLoc& loc) {
    if (sym == nullptr) panic(loc, "unresolved symbol");
    if (const auto it = frame_.find(sym); it != frame_.end()) return it->second;
    if (const auto it = interp_.globals_.find(sym); it != interp_.globals_.end()) {
      return it->second;
    }
    panic(loc, "variable '" + sym->name + "' has no storage (interpreter bug)");
  }

  void bind(const Symbol* sym, Value value) {
    frame_[sym] = make_cell(std::move(value));
  }

  // -- Statements --------------------------------------------------------------

  Flow exec_stmt(const Stmt& stmt) {
    switch (stmt.kind) {
      case Stmt::Kind::kBlock:
        for (const auto& s : stmt.stmts) {
          const Flow f = exec_stmt(*s);
          if (f != Flow::kNormal) return f;
        }
        return Flow::kNormal;
      case Stmt::Kind::kVarDecl:
        bind(stmt.symbol, stmt.init && !stmt.init_is_type_hint
                              ? eval(*stmt.init)
                              : default_value(stmt.symbol->type));
        return Flow::kNormal;
      case Stmt::Kind::kAssign: {
        Value rhs = eval(*stmt.rhs);
        if (stmt.assign_op != Stmt::AssignOp::kPlain) {
          const Value lhs = load_lvalue(*stmt.lhs);
          rhs = arith(stmt.assign_op, lhs, rhs, stmt.loc);
        }
        store_lvalue(*stmt.lhs, std::move(rhs));
        return Flow::kNormal;
      }
      case Stmt::Kind::kExprStmt:
        eval(*stmt.expr);
        return Flow::kNormal;
      case Stmt::Kind::kIf:
        if (eval(*stmt.expr).as_bool()) return exec_stmt(*stmt.then_block);
        if (stmt.else_block) return exec_stmt(*stmt.else_block);
        return Flow::kNormal;
      case Stmt::Kind::kWhile:
        for (;;) {
          if (!eval(*stmt.expr).as_bool()) return Flow::kNormal;
          const Flow f = exec_stmt(*stmt.body);
          if (f == Flow::kReturn || f == Flow::kCancelLoop) return f;
          if (f == Flow::kBreak) return Flow::kNormal;
          if (stmt.step) exec_stmt(*stmt.step);  // also runs after continue
        }
      case Stmt::Kind::kForRange: {
        const std::int64_t lo = eval(*stmt.expr).as_i64();
        const std::int64_t hi = eval(*stmt.rhs).as_i64();
        for (std::int64_t i = lo; i < hi; ++i) {
          bind(stmt.symbol, Value(i));
          const Flow f = exec_stmt(*stmt.body);
          if (f == Flow::kReturn || f == Flow::kCancelLoop) return f;
          if (f == Flow::kBreak) break;
        }
        return Flow::kNormal;
      }
      case Stmt::Kind::kReturn:
        if (stmt.expr) return_value_ = eval(*stmt.expr);
        return Flow::kReturn;
      case Stmt::Kind::kBreak: return Flow::kBreak;
      case Stmt::Kind::kContinue: return Flow::kContinue;

      case Stmt::Kind::kOmpFork: return exec_fork(stmt);
      case Stmt::Kind::kOmpWsLoop: return exec_ws_loop(stmt);
      case Stmt::Kind::kOmpBarrier: return exec_barrier();
      case Stmt::Kind::kOmpCancel:
      case Stmt::Kind::kOmpCancellationPoint:
        return exec_cancel(stmt);
      case Stmt::Kind::kOmpCritical: {
        rt::critical_enter(stmt.name);
        const Flow f = exec_stmt(*stmt.body);
        rt::critical_exit(stmt.name);
        return f;
      }
      case Stmt::Kind::kOmpSingle: {
        rt::ThreadState& ts = rt::current_thread();
        Flow f = Flow::kNormal;
        if (ts.team->single_begin(ts)) f = exec_stmt(*stmt.body);
        if (!stmt.nowait && exec_barrier() == Flow::kReturn) {
          return Flow::kReturn;
        }
        return f;
      }
      case Stmt::Kind::kOmpMaster:
        if (rt::current_thread().tid == 0) return exec_stmt(*stmt.body);
        return Flow::kNormal;
      case Stmt::Kind::kOmpAtomic: {
        // Serialise the read-modify-write via the runtime's atomic critical;
        // semantically equivalent to hardware atomics for interpreted code.
        rt::critical_enter("__mz_atomic");
        const Flow f = exec_stmt(*stmt.body);
        rt::critical_exit("__mz_atomic");
        return f;
      }
      case Stmt::Kind::kOmpOrdered: {
        rt::ThreadState& ts = rt::current_thread();
        const std::int64_t index =
            cell_of(ordered_iv_, stmt.loc)->as_i64() - ordered_lo_;
        ts.team->ordered_enter(ts, index);
        const Flow f = exec_stmt(*stmt.body);
        ts.team->ordered_exit(ts, index);
        return f;
      }
      case Stmt::Kind::kOmpReductionInit: {
        Value identity = lang::with_reduce_type(
            core::reduce_type(stmt.symbol->type), [&](auto t) {
              return Value(lang::reduce_identity<decltype(t)>(stmt.reduce_op));
            });
        if (!stmt.rhs) {
          bind(stmt.symbol, std::move(identity));
          return Flow::kNormal;
        }
        // Array section: a private len-element slice of identities.
        const std::int64_t len = eval(*stmt.rhs).as_i64();
        if (len < 0) panic(stmt.loc, "negative array-section length");
        SliceVal acc;
        acc.data = std::make_shared<std::vector<Value>>(
            static_cast<std::size_t>(len), identity);
        bind(stmt.symbol, Value(std::move(acc)));
        return Flow::kNormal;
      }
      case Stmt::Kind::kOmpReductionCombine:
        exec_reduce(stmt);
        return Flow::kNormal;
      case Stmt::Kind::kOmpLastprivateWrite: {
        Cell target = cell_of(stmt.target_symbol, stmt.loc);
        *target = *cell_of(stmt.symbol, stmt.loc);
        return Flow::kNormal;
      }
      case Stmt::Kind::kOmpTask: return exec_task(stmt);
      case Stmt::Kind::kOmpTaskwait: {
        rt::ThreadState& ts = rt::current_thread();
        ts.team->taskwait(ts);
        return Flow::kNormal;
      }
      case Stmt::Kind::kOmpTaskgroup: {
        rt::ThreadState& ts = rt::current_thread();
        rt::TaskGroup group;
        ts.team->taskgroup_begin(ts, group);
        const Flow f = exec_stmt(*stmt.body);
        // Close the group even on an early return: its tasks (and their
        // descendants) are awaited and the group stack stays balanced.
        ts.team->taskgroup_end(ts, group);
        return f;
      }
      case Stmt::Kind::kOmpTaskloop: return exec_taskloop(stmt);
    }
    return Flow::kNormal;
  }

  /// One rendezvous for a construct's whole reduction list (core::
  /// ReducePlan): every member deposits one payload of all its partials
  /// (lang/reduce_ops.h layout), the tree folds the payloads item by item,
  /// and the winner alone folds every item into its shared target; the
  /// construct's ensuing barrier (join or explicit) publishes the writes —
  /// no lock.
  void exec_reduce(const Stmt& stmt) {
    core::ReducePlan plan = core::plan_reduce(stmt);
    const std::size_t n = plan.items.size();
    std::vector<lang::ReduceWord> payload(n);
    for (std::size_t k = 0; k < n; ++k) {
      const Value& local = *cell_of(stmt.red_items[k].symbol, stmt.loc);
      if (!plan.items[k].section) {
        payload[k] = to_word(local, stmt.loc);
        continue;
      }
      payload[k] = static_cast<lang::ReduceWord>(local.as_slice().len());
      for (const Value& v : *local.as_slice().data) {
        payload.push_back(to_word(v, stmt.loc));
      }
    }
    rt::ThreadState& ts = rt::current_thread();
    if (!ts.team->reduce_combine(
            ts, payload.data(), payload.size() * sizeof(lang::ReduceWord),
            &combine_payloads, &plan, /*broadcast=*/false)) {
      return;
    }
    auto fold = [&](const lang::ReduceItem& item, Value& target,
                    lang::ReduceWord w) {
      lang::ReduceWord acc = to_word(target, stmt.loc);
      lang::reduce_word(item.op, item.type, acc, w);
      target = from_word(item.type, acc);
    };
    std::size_t elem = n;
    for (std::size_t k = 0; k < n; ++k) {
      const Stmt::OmpReduction& item = stmt.red_items[k];
      Cell target = cell_of(item.target_symbol, stmt.loc);
      if (!plan.items[k].section) {
        fold(plan.items[k], *target, payload[k]);
        continue;
      }
      // Element j of the section lands at target[lo + j].
      const std::int64_t lo = eval(*item.lo).as_i64();
      const auto len = static_cast<std::int64_t>(payload[k]);
      std::vector<Value>& data = *target->as_slice().data;
      if (lo < 0 || lo + len > static_cast<std::int64_t>(data.size())) {
        panic(stmt.loc, "array section [" + std::to_string(lo) + ":" +
                            std::to_string(len) + "] out of bounds of '" +
                            item.target + "' (len " +
                            std::to_string(data.size()) + ")");
      }
      for (std::int64_t j = 0; j < len; ++j) {
        fold(plan.items[k], data[static_cast<std::size_t>(lo + j)],
             payload[elem++]);
      }
    }
  }

  /// A barrier wait. An abandoned episode (cancel parallel) unwinds an
  /// outlined region body to its end — the member heads straight for the
  /// non-cancellable join barrier; elsewhere it is dropped (core::
  /// barrier_escape).
  Flow exec_barrier() {
    rt::ThreadState& ts = rt::current_thread();
    const bool abandoned = ts.team->barrier_wait(ts.tid);
    return abandoned && core::barrier_escape(fn_.is_outlined) ==
                            core::CancelEscape::kLeaveFrame
               ? Flow::kReturn
               : Flow::kNormal;
  }

  Flow exec_fork(const Stmt& stmt) {
    const FnDecl& callee = *stmt.callee_decl;
    std::vector<Cell> args;
    args.reserve(stmt.captures.size());
    for (const auto& cap : stmt.captures) {
      // Shared and reduction captures alias the master's cell; value and
      // slice-header captures are copied per member inside bind_params.
      args.push_back(cell_of(cap.symbol, stmt.loc));
    }
    rt::ForkOptions opts;
    if (stmt.num_threads) {
      opts.num_threads = static_cast<rt::i32>(eval(*stmt.num_threads).as_i64());
    }
    if (stmt.if_clause) opts.if_clause = eval(*stmt.if_clause).as_bool();
    if (stmt.proc_bind >= 0) {
      opts.proc_bind = static_cast<rt::BindKind>(stmt.proc_bind);
    }
    // fork_body: the closure rides in the microtask argument array directly,
    // so interpreted region entry pays no std::function allocation and takes
    // the same hot-team fast path as generated code.
    rt::fork_body(
        [&] {
          Exec member(interp_, callee);
          member.bind_params(args);
          member.run();
        },
        opts);
    return Flow::kNormal;
  }

  /// Pre-resolved collapse dimension: the synthesized lo/stride/extent
  /// locals are loaded once per construct, then each logical iteration
  /// recomputes iv_k = lo_k + (flat / stride_k) % extent_k.
  struct CollapseCtx {
    const Symbol* iv = nullptr;
    std::int64_t lo = 0;
    std::int64_t stride = 1;
    std::int64_t extent = 0;
    bool outermost = false;
  };

  Flow exec_ws_loop(const Stmt& stmt) {
    const Stmt& loop = *stmt.body;
    rt::ThreadState& ts = rt::current_thread();
    rt::Team& team = *ts.team;
    const std::int64_t lo = eval(*loop.expr).as_i64();
    const std::int64_t hi = eval(*loop.rhs).as_i64();
    const std::int64_t chunk =
        stmt.schedule.chunk ? eval(*stmt.schedule.chunk).as_i64() : 0;

    std::vector<CollapseCtx> dims;
    dims.reserve(stmt.collapse.size());
    for (std::size_t k = 0; k < stmt.collapse.size(); ++k) {
      const lang::CollapseDim& dim = stmt.collapse[k];
      CollapseCtx ctx;
      ctx.iv = dim.iv_symbol;
      ctx.lo = cell_of(dim.lo_symbol, stmt.loc)->as_i64();
      ctx.stride = cell_of(dim.stride_symbol, stmt.loc)->as_i64();
      ctx.extent = cell_of(dim.extent_symbol, stmt.loc)->as_i64();
      ctx.outermost = k == 0;
      dims.push_back(ctx);
    }
    // Odometer de-linearization: the div/mod chain runs once per chunk
    // (seed), then each logical iteration advances the ivs by incrementing
    // the innermost and carrying on overflow — mirroring the generated-code
    // lowering (codegen.cpp odometer_text). The divisors are only touched
    // while iterations run; a zero extent anywhere empties the linearized
    // space, so no division by zero.
    std::vector<std::int64_t> iv_vals(dims.size());
    auto seed_dims = [&](std::int64_t flat) {
      for (std::size_t k = 0; k < dims.size(); ++k) {
        std::int64_t v = flat / dims[k].stride;
        if (!dims[k].outermost) v %= dims[k].extent;
        iv_vals[k] = dims[k].lo + v;
      }
    };
    auto bind_dims = [&] {
      for (std::size_t k = 0; k < dims.size(); ++k) {
        bind(dims[k].iv, Value(iv_vals[k]));
      }
    };
    auto advance_dims = [&] {
      if (dims.empty()) return;
      for (std::size_t k = dims.size(); k-- > 1;) {
        if (++iv_vals[k] != dims[k].lo + dims[k].extent) return;
        iv_vals[k] = dims[k].lo;  // wrap, carry outward
      }
      ++iv_vals[0];  // the outermost dimension never wraps
    };

    // Ordered context for OmpOrdered nodes in the body.
    const Symbol* saved_iv = ordered_iv_;
    const std::int64_t saved_lo = ordered_lo_;
    ordered_iv_ = loop.symbol;
    ordered_lo_ = lo;

    const core::LoopPlan plan = core::plan_loop(stmt);
    const bool saved_cancel_loop = in_cancel_loop_;
    in_cancel_loop_ = plan.cancel_escape;

    bool had_last = false;
    // Cancellation escape shared by both scheduling paths. `cancel for`
    // surfaces as Flow::kCancelLoop: stop issuing chunks and drain to the
    // closing barrier. A `cancel parallel` observed mid-loop surfaces as
    // Flow::kReturn with the team's parallel bit set: leave the whole region.
    Flow out = Flow::kNormal;
    auto body_escapes = [&](Flow f) {
      if (f == Flow::kCancelLoop ||
          (f == Flow::kReturn &&
           team.cancellation_requested(ts, rt::Team::kCancelParallel))) {
        out = f;
        return true;
      }
      return false;
    };
    // Runs one chunk [clo, chi) of the linearized space; true when the body
    // escaped, so the caller stops issuing chunks.
    auto run_chunk = [&](std::int64_t clo, std::int64_t chi) {
      if (!dims.empty() && clo < chi) seed_dims(clo);
      for (std::int64_t i = clo; i < chi; ++i) {
        bind(loop.symbol, Value(i));
        bind_dims();
        if (body_escapes(exec_stmt(*loop.body))) return true;
        advance_dims();
      }
      return false;
    };
    if (!plan.dispatch) {
      const rt::StaticRange r =
          rt::static_distribute(lo, hi, 1, chunk, ts.tid, team.size());
      const std::int64_t span = r.hi - r.lo;
      for (std::int64_t block = r.lo; block < hi; block += r.stride) {
        if (run_chunk(block, std::min(block + span, hi))) break;
      }
      had_last = r.last;
    } else {
      team.dispatch_init(
          ts, rt::Schedule{static_cast<rt::ScheduleKind>(plan.schedule), chunk},
          lo, hi, 1);
      std::int64_t clo = 0, chi = 0;
      bool last = false;
      while (team.dispatch_next(ts, &clo, &chi, &last)) {
        if (run_chunk(clo, chi)) break;
        if (last) had_last = true;
      }
      // An escaped chunk leaves this thread mid-dispatch; detach its slot so
      // dispatch_fini accounting stays balanced (no-op if already detached).
      if (out != Flow::kNormal) team.dispatch_break(ts);
    }

    ordered_iv_ = saved_iv;
    ordered_lo_ = saved_lo;
    in_cancel_loop_ = saved_cancel_loop;

    if (out == Flow::kReturn) return Flow::kReturn;  // region cancelled
    if (plan.track_last && had_last && out == Flow::kNormal) {
      for (const auto& [local, target] : stmt.lastprivate_syms) {
        *cell_of(target, stmt.loc) = *cell_of(local, stmt.loc);
      }
    }
    return stmt.nowait ? Flow::kNormal : exec_barrier();
  }

  /// `omp cancel` / `omp cancellation point`: the same ABI entry points
  /// generated code calls (no-ops while the OMP_CANCELLATION ICV is off),
  /// then the escape core::plan_cancel picked. kCancelLoop unwinds to the
  /// enclosing ws-loop, kReturn to the region (or task body) end.
  Flow exec_cancel(const Stmt& stmt) {
    const core::CancelPlan plan =
        core::plan_cancel(stmt, in_cancel_loop_, fn_.is_outlined);
    const bool hit =
        (stmt.kind == Stmt::Kind::kOmpCancellationPoint
             ? zomp_cancellation_point(nullptr, 0, plan.construct)
             : zomp_cancel(nullptr, 0, plan.construct)) != 0;
    if (!hit) return Flow::kNormal;
    switch (plan.escape) {
      case core::CancelEscape::kLeaveLoop: return Flow::kCancelLoop;
      case core::CancelEscape::kLeaveFrame: return Flow::kReturn;
      case core::CancelEscape::kFlagOnly: break;
    }
    return Flow::kNormal;
  }

  /// Storage address of a depend item (the OpenMP list-item identity): the
  /// heap Cell for a variable, the Value slot for a slice element. Shared
  /// captures alias one Cell across the team, so sibling tasks naming the
  /// same variable agree on the address — mirroring &var in generated code.
  void* lvalue_address(const Expr& e) {
    if (e.kind == Expr::Kind::kVarRef) {
      return cell_of(e.symbol, e.loc).get();
    }
    if (e.kind == Expr::Kind::kIndex) {
      const SliceVal slice = eval(*e.args[0]).as_slice();
      const std::int64_t i = eval(*e.args[1]).as_i64();
      if (!slice.data || i < 0 || i >= slice.len()) {
        panic(e.loc, "depend item index out of bounds");
      }
      return &(*slice.data)[static_cast<std::size_t>(i)];
    }
    panic(e.loc, "depend item is not addressable");
  }

  /// Snapshot of a task-family construct's captures: firstprivate captures
  /// copy their value *now* (the task may outlive this frame); shared
  /// captures alias the enclosing cell — the region's join barrier
  /// guarantees the cell outlives the task.
  std::shared_ptr<std::vector<Cell>> snapshot_captures(const Stmt& stmt) {
    auto captured = std::make_shared<std::vector<Cell>>();
    captured->reserve(stmt.captures.size());
    for (const auto& cap : stmt.captures) {
      Cell cell = cell_of(cap.symbol, stmt.loc);
      if (cap.mode == lang::CaptureMode::kValue) {
        captured->push_back(make_cell(*cell));
      } else {
        captured->push_back(std::move(cell));
      }
    }
    return captured;
  }

  Flow exec_task(const Stmt& stmt) {
    const FnDecl& callee = *stmt.callee_decl;
    auto captured = snapshot_captures(stmt);
    rt::ThreadState& ts = rt::current_thread();
    Interp& interp = interp_;
    auto body_fn = [&interp, &callee, captured] {
      Exec body(interp, callee);
      body.bind_params(*captured);
      body.run();
    };
    const core::TaskPlan plan = core::plan_task(stmt);
    if (plan.fast) {
      ts.team->task_create(ts, std::move(body_fn));
      return Flow::kNormal;
    }
    // Clause expressions evaluate at creation time, in the enclosing scope,
    // in the SAME order as the generated code's emission (depend addresses,
    // then if, final, priority) so side-effecting clause expressions cannot
    // diverge between backends.
    std::vector<rt::DepSpec> deps;
    deps.reserve(stmt.depends.size());
    for (const auto& dep : stmt.depends) {
      rt::DepSpec spec;
      spec.addr = lvalue_address(*dep.item);
      spec.kind = static_cast<rt::DepKind>(dep.kind);
      deps.push_back(spec);
    }
    rt::TaskOpts opts;
    opts.deps = deps.data();
    opts.ndeps = static_cast<rt::i32>(deps.size());
    opts.deferred =
        stmt.if_clause == nullptr || eval(*stmt.if_clause).as_bool();
    opts.final = stmt.final_clause != nullptr && eval(*stmt.final_clause).as_bool();
    opts.untied = (plan.flags & ZOMP_TASK_UNTIED) != 0;
    opts.priority = stmt.priority
                        ? static_cast<rt::i32>(eval(*stmt.priority).as_i64())
                        : 0;
    ts.team->task_create_ex(ts, std::move(body_fn), opts);
    return Flow::kNormal;
  }

  Flow exec_taskloop(const Stmt& stmt) {
    const FnDecl& callee = *stmt.callee_decl;
    auto captured = snapshot_captures(stmt);
    const std::int64_t lo = eval(*stmt.expr).as_i64();
    const std::int64_t hi = eval(*stmt.rhs).as_i64();
    const std::int64_t grainsize =
        stmt.grainsize ? eval(*stmt.grainsize).as_i64() : 0;
    const std::int64_t num_tasks =
        stmt.num_tasks ? eval(*stmt.num_tasks).as_i64() : 0;
    rt::ThreadState& ts = rt::current_thread();
    Interp& interp = interp_;
    // Blocks until every chunk task completed (implicit taskgroup inside
    // Team::taskloop). The outlined function's last two parameters take the
    // chunk bounds; bind_params value-copies them per activation.
    ts.team->taskloop(
        ts, lo, hi, grainsize, num_tasks,
        [&interp, &callee, captured](rt::i64 chunk_lo, rt::i64 chunk_hi) {
          std::vector<Cell> cells = *captured;
          cells.push_back(make_cell(Value(chunk_lo)));
          cells.push_back(make_cell(Value(chunk_hi)));
          Exec body(interp, callee);
          body.bind_params(cells);
          body.run();
        });
    return Flow::kNormal;
  }

  // -- Expressions ----------------------------------------------------------------

  Value default_value(const lang::Type& type) {
    if (type.is_f64()) return Value(0.0);
    if (type.is_bool()) return Value(false);
    if (type.is_slice()) return Value(SliceVal{});
    if (type.is_pointer()) return Value(PtrVal{});
    return Value(std::int64_t{0});
  }

  Value load_lvalue(const Expr& e) { return eval(e); }

  void store_lvalue(const Expr& e, Value value) {
    switch (e.kind) {
      case Expr::Kind::kVarRef:
        *cell_of(e.symbol, e.loc) = std::move(value);
        return;
      case Expr::Kind::kIndex: {
        const SliceVal slice = eval(*e.args[0]).as_slice();
        const std::int64_t i = eval(*e.args[1]).as_i64();
        if (!slice.data || i < 0 || i >= slice.len()) {
          panic(e.loc, "index out of bounds (store)");
        }
        (*slice.data)[static_cast<std::size_t>(i)] = std::move(value);
        return;
      }
      case Expr::Kind::kDeref: {
        const PtrVal p = eval(*e.args[0]).as_ptr();
        if (p.is_element) {
          if (!p.slice.data || p.index < 0 || p.index >= p.slice.len()) {
            panic(e.loc, "dangling element pointer (store)");
          }
          (*p.slice.data)[static_cast<std::size_t>(p.index)] = std::move(value);
        } else if (p.cell) {
          *p.cell = std::move(value);
        } else {
          panic(e.loc, "store through null pointer");
        }
        return;
      }
      default:
        panic(e.loc, "not an assignable expression");
    }
  }

  Value arith(Stmt::AssignOp op, const Value& a, const Value& b,
              const lang::SourceLoc& loc) {
    BinOp bop;
    switch (op) {
      case Stmt::AssignOp::kAdd: bop = BinOp::kAdd; break;
      case Stmt::AssignOp::kSub: bop = BinOp::kSub; break;
      case Stmt::AssignOp::kMul: bop = BinOp::kMul; break;
      case Stmt::AssignOp::kDiv: bop = BinOp::kDiv; break;
      default: panic(loc, "bad compound assignment");
    }
    return binary(bop, a, b, loc);
  }

  Value binary(BinOp op, const Value& a, const Value& b,
               const lang::SourceLoc& loc) {
    if (std::holds_alternative<double>(a.v)) {
      const double x = a.as_f64();
      const double y = b.as_f64();
      switch (op) {
        case BinOp::kAdd: return Value(x + y);
        case BinOp::kSub: return Value(x - y);
        case BinOp::kMul: return Value(x * y);
        case BinOp::kDiv: return Value(x / y);
        case BinOp::kEq: return Value(x == y);
        case BinOp::kNe: return Value(x != y);
        case BinOp::kLt: return Value(x < y);
        case BinOp::kLe: return Value(x <= y);
        case BinOp::kGt: return Value(x > y);
        case BinOp::kGe: return Value(x >= y);
        default: panic(loc, "bad float operator");
      }
    }
    if (std::holds_alternative<bool>(a.v)) {
      const bool x = a.as_bool();
      const bool y = b.as_bool();
      switch (op) {
        case BinOp::kEq: return Value(x == y);
        case BinOp::kNe: return Value(x != y);
        case BinOp::kAnd: return Value(x && y);
        case BinOp::kOr: return Value(x || y);
        default: panic(loc, "bad bool operator");
      }
    }
    const std::int64_t x = a.as_i64();
    const std::int64_t y = b.as_i64();
    switch (op) {
      case BinOp::kAdd: return Value(x + y);
      case BinOp::kSub: return Value(x - y);
      case BinOp::kMul: return Value(x * y);
      case BinOp::kDiv:
        if (y == 0) panic(loc, "integer division by zero");
        return Value(x / y);
      case BinOp::kRem:
        if (y == 0) panic(loc, "integer remainder by zero");
        return Value(x % y);
      case BinOp::kEq: return Value(x == y);
      case BinOp::kNe: return Value(x != y);
      case BinOp::kLt: return Value(x < y);
      case BinOp::kLe: return Value(x <= y);
      case BinOp::kGt: return Value(x > y);
      case BinOp::kGe: return Value(x >= y);
      case BinOp::kBitAnd: return Value(x & y);
      case BinOp::kBitOr: return Value(x | y);
      case BinOp::kBitXor: return Value(x ^ y);
      case BinOp::kShl: return Value(static_cast<std::int64_t>(
          static_cast<std::uint64_t>(x) << (y & 63)));
      case BinOp::kShr: return Value(x >> (y & 63));
      default: panic(loc, "bad integer operator");
    }
  }

  Value eval(const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kIntLit: return Value(e.int_value);
      case Expr::Kind::kFloatLit: return Value(e.float_value);
      case Expr::Kind::kBoolLit: return Value(e.bool_value);
      case Expr::Kind::kStringLit: return Value(e.name);
      case Expr::Kind::kUndefined: return Value(std::int64_t{0});
      case Expr::Kind::kVarRef: return *cell_of(e.symbol, e.loc);
      case Expr::Kind::kBinary: {
        // Short-circuit for and/or.
        if (e.bin_op == BinOp::kAnd) {
          return Value(eval(*e.args[0]).as_bool() &&
                       eval(*e.args[1]).as_bool());
        }
        if (e.bin_op == BinOp::kOr) {
          return Value(eval(*e.args[0]).as_bool() ||
                       eval(*e.args[1]).as_bool());
        }
        const Value a = eval(*e.args[0]);
        const Value b = eval(*e.args[1]);
        return binary(e.bin_op, a, b, e.loc);
      }
      case Expr::Kind::kUnary: {
        const Value v = eval(*e.args[0]);
        if (e.un_op == UnOp::kNot) return Value(!v.as_bool());
        if (std::holds_alternative<double>(v.v)) return Value(-v.as_f64());
        return Value(-v.as_i64());
      }
      case Expr::Kind::kCall: return eval_call(e);
      case Expr::Kind::kBuiltinCall: return eval_builtin(e);
      case Expr::Kind::kIndex: {
        const SliceVal slice = eval(*e.args[0]).as_slice();
        const std::int64_t i = eval(*e.args[1]).as_i64();
        if (!slice.data || i < 0 || i >= slice.len()) {
          panic(e.loc, "index out of bounds: index " + std::to_string(i) +
                           ", len " + std::to_string(slice.len()));
        }
        return (*slice.data)[static_cast<std::size_t>(i)];
      }
      case Expr::Kind::kLen: return Value(eval(*e.args[0]).as_slice().len());
      case Expr::Kind::kAddrOf: {
        const Expr& target = *e.args[0];
        if (target.kind == Expr::Kind::kVarRef) {
          PtrVal p;
          p.cell = cell_of(target.symbol, e.loc);
          return Value(p);
        }
        // &slice[i]
        PtrVal p;
        p.slice = eval(*target.args[0]).as_slice();
        p.index = eval(*target.args[1]).as_i64();
        p.is_element = true;
        return Value(p);
      }
      case Expr::Kind::kDeref: {
        const PtrVal p = eval(*e.args[0]).as_ptr();
        if (p.is_element) {
          if (!p.slice.data || p.index < 0 || p.index >= p.slice.len()) {
            panic(e.loc, "dangling element pointer");
          }
          return (*p.slice.data)[static_cast<std::size_t>(p.index)];
        }
        if (!p.cell) panic(e.loc, "load through null pointer");
        return *p.cell;
      }
    }
    panic(e.loc, "bad expression");
  }

  Value eval_call(const Expr& e) {
    const FnDecl* callee = e.callee;
    if (callee == nullptr) panic(e.loc, "unresolved call");
    if (callee->is_extern) {
      const auto it = interp_.host_fns_.find(callee->name);
      if (it == interp_.host_fns_.end()) {
        panic(e.loc, "extern function '" + callee->name +
                         "' has no host binding registered");
      }
      std::vector<Value> args;
      args.reserve(e.args.size());
      for (const auto& a : e.args) args.push_back(eval(*a));
      return it->second(args);
    }
    std::vector<Cell> cells;
    cells.reserve(e.args.size());
    for (const auto& a : e.args) cells.push_back(make_cell(eval(*a)));
    Exec callee_exec(interp_, *callee);
    callee_exec.bind_params(cells);
    return callee_exec.run();
  }

  Value eval_builtin(const Expr& e) {
    auto f = [&](std::size_t i) { return eval(*e.args[i]); };
    switch (e.builtin) {
      case Builtin::kSqrt: return Value(std::sqrt(f(0).as_f64()));
      case Builtin::kExp: return Value(std::exp(f(0).as_f64()));
      case Builtin::kLog: return Value(std::log(f(0).as_f64()));
      case Builtin::kPow:
        return Value(std::pow(f(0).as_f64(), f(1).as_f64()));
      case Builtin::kAbs: {
        const Value v = f(0);
        if (std::holds_alternative<double>(v.v)) {
          return Value(std::fabs(v.as_f64()));
        }
        const std::int64_t x = v.as_i64();
        return Value(x < 0 ? -x : x);
      }
      case Builtin::kMin:
      case Builtin::kMax: {
        const Value a = f(0);
        const Value b = f(1);
        const bool take_min = e.builtin == Builtin::kMin;
        if (std::holds_alternative<double>(a.v)) {
          return Value(take_min ? std::min(a.as_f64(), b.as_f64())
                                : std::max(a.as_f64(), b.as_f64()));
        }
        return Value(take_min ? std::min(a.as_i64(), b.as_i64())
                              : std::max(a.as_i64(), b.as_i64()));
      }
      case Builtin::kMod: {
        const std::int64_t a = f(0).as_i64();
        const std::int64_t b = f(1).as_i64();
        if (b == 0) panic(e.loc, "@mod by zero");
        const std::int64_t r = a % b;
        return Value((r != 0 && ((r < 0) != (b < 0))) ? r + b : r);
      }
      case Builtin::kFloatFromInt:
        return Value(static_cast<double>(f(0).as_i64()));
      case Builtin::kIntFromFloat:
        return Value(static_cast<std::int64_t>(f(0).as_f64()));
      case Builtin::kAlloc: {
        const std::int64_t n = f(0).as_i64();
        if (n < 0) panic(e.loc, "negative @alloc length");
        SliceVal s;
        s.data = std::make_shared<std::vector<Value>>(
            static_cast<std::size_t>(n),
            default_value(lang::Type::slice_of(e.alloc_elem.scalar()).element()));
        return Value(s);
      }
      case Builtin::kFree:
        // Slices are shared_ptr-backed; explicit free is a no-op that keeps
        // source compatibility with the codegen backend.
        f(0);
        return Value();
      case Builtin::kPrint: {
        std::ostringstream line;
        for (std::size_t i = 0; i < e.args.size(); ++i) {
          if (i > 0) line << ' ';
          const Value v = f(i);
          if (std::holds_alternative<std::int64_t>(v.v)) {
            line << v.as_i64();
          } else if (std::holds_alternative<double>(v.v)) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.17g", v.as_f64());
            line << buf;
          } else if (std::holds_alternative<bool>(v.v)) {
            line << (v.as_bool() ? "true" : "false");
          } else if (std::holds_alternative<std::string>(v.v)) {
            line << std::get<std::string>(v.v);
          } else {
            line << "<value>";
          }
        }
        line << '\n';
        {
          const std::lock_guard<std::mutex> lock(interp_.print_mutex_);
          std::ostream* out =
              interp_.options_.out != nullptr ? interp_.options_.out : &std::cout;
          (*out) << line.str();
          out->flush();
        }
        return Value();
      }
    }
    panic(e.loc, "bad builtin");
  }

  Interp& interp_;
  const FnDecl& fn_;
  std::unordered_map<const Symbol*, Cell> frame_;
  Value return_value_;
  const Symbol* ordered_iv_ = nullptr;
  std::int64_t ordered_lo_ = 0;
  /// The innermost ws-loop of this activation has a `cancel for` escape.
  bool in_cancel_loop_ = false;
};

// ---------------------------------------------------------------------------
// Interp
// ---------------------------------------------------------------------------

Interp::Interp(const lang::Module& module, Options options)
    : module_(module), options_(options) {
  // Globals, in declaration order: each initialiser is evaluated by a frame-
  // less activation that sees all previously initialised globals.
  static const FnDecl global_init_fn{};
  for (const auto& g : module_.globals) {
    if (g->kind != Stmt::Kind::kVarDecl || g->symbol == nullptr) continue;
    Exec exec(*this, global_init_fn);
    Value v = g->init ? exec.eval_expr(*g->init) : exec.zero_of(g->symbol->type);
    globals_[g->symbol] = make_cell(std::move(v));
  }

  // Pre-registered host functions: every mz_omp_* routine abi.h declares,
  // bound to the same C entry point generated code calls.
#define ZOMP_BIND_HOST(fn) register_host_fn(#fn, host_binding(&fn))
#define ZOMP_ROUTINE(ret, name, call, param) ZOMP_BIND_HOST(mz_omp_##name);
#include "runtime/omp_routines.def"
#undef ZOMP_ROUTINE
  ZOMP_BIND_HOST(mz_omp_team_stat);
#undef ZOMP_BIND_HOST
}

void Interp::register_host_fn(const std::string& name, HostFn fn) {
  host_fns_[name] = std::move(fn);
}

bool Interp::run_main() {
  const FnDecl* main_fn = module_.find_function("main");
  if (main_fn == nullptr || main_fn->is_extern) return false;
  Exec exec(*this, *main_fn);
  exec.run();
  return true;
}

Value Interp::call_by_name(const std::string& name, std::vector<Value> args) {
  const FnDecl* fn = module_.find_function(name);
  if (fn == nullptr) {
    std::fprintf(stderr, "interp: no function '%s'\n", name.c_str());
    std::abort();
  }
  std::vector<Cell> cells;
  cells.reserve(args.size());
  for (auto& a : args) cells.push_back(make_cell(std::move(a)));
  Exec exec(*this, *fn);
  exec.bind_params(cells);
  return exec.run();
}

}  // namespace zomp::interp
