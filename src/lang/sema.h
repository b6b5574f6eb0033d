// Semantic analysis for MiniZig.
//
// Runs *after* the directive engine, mirroring the paper's pipeline: the
// preprocessor outlines regions with no type information (paper §2 — "it
// does limit what type information is available during preprocessing"), and
// the limitation is overcome the same way the paper overcomes it with Zig
// generics: outlined functions carry inferred parameter types that sema
// resolves monomorphically at their unique fork/task call site.
#pragma once

#include "lang/ast.h"
#include "lang/source.h"

namespace zomp::lang {

/// Resolves names, infers and checks types, and validates the structured
/// OpenMP statements. Returns false if any error was reported. The module is
/// usable by backends only when this returns true.
bool analyze(Module& module, Diagnostics& diags);

}  // namespace zomp::lang
