// Reduction operators: one table of identities and combiners keyed on
// (operator, element type), and the packed payload a construct's reduction
// list hands the team's reduction tree (runtime/reduce.h, DESIGN.md S1.2).
// The interpreter calls it directly; generated code reaches it through
// codegen/mz_support.h, which is why it includes only standard headers.
//
// Payload layout, the same in both backends: one 8-byte word per list item
// (the scalar partial, or the array section's length), then every section's
// elements, one word each, in item order. A bool rides as 0/1, i64 and f64
// as their bits. `reduce_pack_combine` folds one payload into another.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>

namespace zomp::lang {

/// Reduction operators of the `reduction` clause: (enumerator, spelling).
#define ZOMP_REDUCE_OPS(X)                                             \
  X(kAdd, "+") X(kSub, "-") X(kMul, "*") X(kMin, "min") X(kMax, "max") \
  X(kBitAnd, "&") X(kBitOr, "|") X(kBitXor, "^") X(kLogAnd, "and")     \
  X(kLogOr, "or")

#define ZOMP_REDUCE_ENUMERATOR(e, spelling) e,
enum class ReduceOp { ZOMP_REDUCE_OPS(ZOMP_REDUCE_ENUMERATOR) };
#undef ZOMP_REDUCE_ENUMERATOR

/// Source spelling of `op` ("+", "min", ...), or with `enumerator` its C++
/// name ("kAdd", ...) for generated code.
constexpr const char* reduce_op_spelling(ReduceOp op, bool enumerator = false) {
#define ZOMP_REDUCE_NAMES(e, spelling) spelling, #e,
  constexpr const char* kNames[] = {ZOMP_REDUCE_OPS(ZOMP_REDUCE_NAMES)};
#undef ZOMP_REDUCE_NAMES
  return kNames[2 * static_cast<int>(op) + (enumerator ? 1 : 0)];
}

/// Element type of a reduction list item (array sections: i64 or f64).
enum class ReduceType : std::uint8_t { kI64, kF64, kBool };

constexpr const char* reduce_type_enumerator(ReduceType type) {
  constexpr const char* kNames[] = {"kI64", "kF64", "kBool"};
  return kNames[static_cast<int>(type)];
}

/// Identity of `op` on T: the private accumulator's initial value.
template <typename T>
constexpr T reduce_identity(ReduceOp op) {
  using Limits = std::numeric_limits<T>;
  switch (op) {
    case ReduceOp::kMul:
    case ReduceOp::kLogAnd: return T(1);
    case ReduceOp::kMin:
      return Limits::has_infinity ? Limits::infinity() : Limits::max();
    case ReduceOp::kMax:
      return Limits::has_infinity ? -Limits::infinity() : Limits::lowest();
    case ReduceOp::kBitAnd: return T(-1);  // all ones (i64 only)
    default: return T(0);
  }
}

/// `a op b` on T. OpenMP's '-' reduction combines partials with +.
template <typename T>
constexpr T reduce_combine(ReduceOp op, T a, T b) {
  switch (op) {
    case ReduceOp::kAdd:
    case ReduceOp::kSub: return T(a + b);
    case ReduceOp::kMul: return T(a * b);
    case ReduceOp::kMin: return b < a ? b : a;
    case ReduceOp::kMax: return a < b ? b : a;
    case ReduceOp::kLogAnd: return T(a != T(0) && b != T(0));
    case ReduceOp::kLogOr: return T(a != T(0) || b != T(0));
    default: break;
  }
  if constexpr (std::is_integral_v<T>) {
    if (op == ReduceOp::kBitAnd) return T(a & b);
    return op == ReduceOp::kBitOr ? T(a | b) : T(a ^ b);
  }
  return a;  // bitwise on f64: rejected by sema
}

using ReduceWord = std::uint64_t;

template <typename T>
ReduceWord to_reduce_word(T v) {
  if constexpr (std::is_same_v<T, bool>) return v ? 1 : 0;
  ReduceWord w = 0;
  std::memcpy(&w, &v, sizeof v);
  return w;
}

template <typename T>
T from_reduce_word(ReduceWord w) {
  if constexpr (std::is_same_v<T, bool>) return w != 0;
  T v;
  std::memcpy(&v, &w, sizeof v);
  return v;
}

/// Runs `fn(T{})` with T the C++ type of `type` (i64, f64 or bool).
template <typename F>
decltype(auto) with_reduce_type(ReduceType type, F&& fn) {
  if (type == ReduceType::kF64) return fn(double{});
  if (type == ReduceType::kBool) return fn(bool{});
  return fn(std::int64_t{});
}

/// `a = a op b` on two payload words of element type `type`.
inline void reduce_word(ReduceOp op, ReduceType type, ReduceWord& a,
                        ReduceWord b) {
  a = with_reduce_type(type, [&](auto t) {
    using T = decltype(t);
    return to_reduce_word(
        reduce_combine(op, from_reduce_word<T>(a), from_reduce_word<T>(b)));
  });
}

/// One reduction list item, as the payload combine needs it.
struct ReduceItem {
  ReduceOp op;
  ReduceType type;
  bool section;
};

/// Folds payload `rhs` into payload `lhs` item by item.
inline void reduce_pack_combine(const ReduceItem* items, std::size_t n,
                                void* lhs, const void* rhs) {
  auto* a = static_cast<ReduceWord*>(lhs);
  const auto* b = static_cast<const ReduceWord*>(rhs);
  std::size_t elem = n;
  for (std::size_t k = 0; k < n; ++k) {
    const ReduceItem& item = items[k];
    if (!item.section) {
      reduce_word(item.op, item.type, a[k], b[k]);
      continue;
    }
    for (const std::size_t end = elem + a[k]; elem < end; ++elem) {
      reduce_word(item.op, item.type, a[elem], b[elem]);
    }
  }
}

}  // namespace zomp::lang
