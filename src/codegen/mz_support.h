// Support header included by every C++ translation unit the code generator
// emits. Provides the MiniZig value types (slices with the optional runtime
// safety checks that motivate the paper's "safer language" thesis), the
// builtin functions, and small helpers.
//
// Safety modes, mirroring Zig's ReleaseSafe / ReleaseFast split:
//   #define ZOMP_MZ_SAFE 1   -> slice indexing is bounds-checked (panic on
//                               out-of-range, like Zig's safety panics)
//   (undefined or 0)         -> unchecked indexing
// The ablate_safety bench compiles the same kernels both ways.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <utility>
#include <vector>

#include "lang/reduce_ops.h"

namespace mz {

[[noreturn]] inline void panic(const char* what, std::int64_t index,
                               std::int64_t len) {
  std::fprintf(stderr, "mz panic: %s (index %lld, len %lld)\n", what,
               static_cast<long long>(index), static_cast<long long>(len));
  std::abort();
}

/// MiniZig slice: pointer + length, the same fat-pointer layout Zig uses.
/// Header copies share the underlying storage (shared-capture semantics).
template <typename T>
struct Slice {
  T* ptr = nullptr;
  std::int64_t len = 0;

  T& operator[](std::int64_t i) const {
#if defined(ZOMP_MZ_SAFE) && ZOMP_MZ_SAFE
    if (i < 0 || i >= len) panic("index out of bounds", i, len);
#endif
    return ptr[i];
  }
};

template <typename T>
Slice<T> alloc(std::int64_t n) {
  if (n < 0) panic("negative allocation length", n, 0);
  return Slice<T>{n == 0 ? nullptr : new T[static_cast<std::size_t>(n)](), n};
}

template <typename T>
void free_slice(Slice<T> s) {
  delete[] s.ptr;
}

// -- Reductions (the lang/reduce_ops.h table and payload) -------------------

using zomp::lang::reduce_identity;
using zomp::lang::reduce_pack_combine;
using zomp::lang::ReduceItem;
using zomp::lang::ReduceOp;
using zomp::lang::ReduceType;
using zomp::lang::ReduceWord;

/// Private accumulator of `reduction(op: q[lo:len])`: `n` copies of the
/// operator identity.
template <typename T>
std::vector<T> section_acc(std::int64_t n, T identity) {
  if (n < 0) panic("negative array-section length", n, 0);
  return std::vector<T>(static_cast<std::size_t>(n), identity);
}

/// The fold target of an array-section item: target[lo, lo + len).
template <typename T>
Slice<T> section(Slice<T> target, std::int64_t lo, std::int64_t len) {
  if (lo < 0 || lo + len > target.len) {
    panic("array section out of bounds", lo + len, target.len);
  }
  return Slice<T>{target.ptr + lo, len};
}

template <typename T>
std::size_t reduce_elems(const T&) { return 0; }
template <typename T>
std::size_t reduce_elems(Slice<T> acc) {
  return static_cast<std::size_t>(acc.len);
}

template <typename T>
void reduce_put(std::vector<ReduceWord>& words, std::size_t k, T partial) {
  words[k] = zomp::lang::to_reduce_word(partial);
}

template <typename T>
void reduce_put(std::vector<ReduceWord>& words, std::size_t k, Slice<T> acc) {
  words[k] = static_cast<ReduceWord>(acc.len);
  for (std::int64_t j = 0; j < acc.len; ++j) {
    words.push_back(zomp::lang::to_reduce_word(acc.ptr[j]));
  }
}

/// One member's payload from its private partials, in item order: a
/// scalar, or an array section's accumulator slice.
template <typename... P>
std::vector<ReduceWord> reduce_pack(const P&... partials) {
  std::vector<ReduceWord> words;  // one allocation per member
  words.reserve((sizeof...(P) + ... + reduce_elems(partials)));
  words.resize(sizeof...(P));
  std::size_t k = 0;
  (reduce_put(words, k++, partials), ...);
  return words;
}

template <typename T>
void reduce_take(ReduceOp op, T& target, const ReduceWord* word,
                 const ReduceWord*&) {
  target = zomp::lang::reduce_combine(
      op, target, zomp::lang::from_reduce_word<T>(*word));
}

template <typename T>
void reduce_take(ReduceOp op, Slice<T> target, const ReduceWord*,
                 const ReduceWord*& elems) {
  for (std::int64_t j = 0; j < target.len; ++j) {
    target.ptr[j] = zomp::lang::reduce_combine(
        op, target.ptr[j], zomp::lang::from_reduce_word<T>(*elems++));
  }
}

/// The winner's fold: every shared target (a scalar, or a section())
/// combines with its team-combined partial in `payload`.
template <typename... T>
void reduce_fold(const ReduceItem* items, const ReduceWord* payload,
                 T&&... targets) {
  const ReduceWord* elems = payload + sizeof...(T);
  std::size_t k = 0;
  ((reduce_take(items[k].op, std::forward<T>(targets), payload + k, elems),
    ++k),
   ...);
}

// -- Builtins ---------------------------------------------------------------

inline double mz_sqrt(double x) { return std::sqrt(x); }
inline double mz_exp(double x) { return std::exp(x); }
inline double mz_log(double x) { return std::log(x); }
inline double mz_pow(double x, double y) { return std::pow(x, y); }
inline double mz_abs(double x) { return std::fabs(x); }
inline std::int64_t mz_abs(std::int64_t x) { return x < 0 ? -x : x; }
template <typename T>
T mz_min(T a, T b) { return b < a ? b : a; }
template <typename T>
T mz_max(T a, T b) { return a < b ? b : a; }

/// Zig's @mod: result has the sign of the divisor (mathematical modulus for
/// positive divisors), unlike C's %.
inline std::int64_t mz_mod(std::int64_t a, std::int64_t b) {
  const std::int64_t r = a % b;
  return (r != 0 && ((r < 0) != (b < 0))) ? r + b : r;
}

// -- @print -------------------------------------------------------------------

inline void print_one(std::int64_t v) { std::printf("%lld", static_cast<long long>(v)); }
inline void print_one(double v) { std::printf("%.17g", v); }
inline void print_one(bool v) { std::fputs(v ? "true" : "false", stdout); }
inline void print_one(std::string_view s) { std::fwrite(s.data(), 1, s.size(), stdout); }
// Without this overload a string literal would convert to bool, not
// string_view (pointer->bool is a standard conversion and wins).
inline void print_one(const char* s) { std::fputs(s, stdout); }

/// `@print(a, b, ...)`: arguments separated by one space, newline-terminated.
template <typename... Args>
void print(const Args&... args) {
  int n = 0;
  ((n++ ? (std::fputc(' ', stdout), print_one(args)) : print_one(args)), ...);
  std::fputc('\n', stdout);
  (void)n;
}
inline void print() { std::fputc('\n', stdout); }

}  // namespace mz
