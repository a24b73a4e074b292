// The `powersched` multi-command CLI, as a library. One binary is the
// front door to everything the engine does —
//
//   powersched sweep         run a bench preset or an ad-hoc solver sweep
//   powersched merge         assemble per-shard cache files into full results
//   powersched report        render a preset's CSV into Markdown + SVG figures
//   powersched list-presets  the bench preset catalogue (--markdown: docs)
//   powersched list-solvers  the registered solver keys
//   powersched help          per-command help; --markdown emits docs/cli.md
//
// — and every command is a thin argv adapter over ps::engine::Session plus
// a stack of ResultSinks, sharing one option parser and one Status ->
// exit-code mapping (0 success, 1 runtime failure, 2 usage error). Living
// in src/ rather than tools/ lets tests drive the CLI in-process.
#pragma once

#include <string>
#include <vector>

namespace ps::cli {

/// Runs one `powersched` invocation: args are argv[1..] ("sweep",
/// "--preset", "e15", ...). Returns the process exit code (0/1/2); an
/// exception escaping the command is printed and exits 1.
int run(const std::vector<std::string>& args);

/// main() adapter for tools/powersched.cpp.
int powersched_main(int argc, char** argv);

/// The full CLI reference as Markdown — every command, option, and the exit
/// code contract. `powersched help --markdown` prints exactly this, and
/// docs/cli.md is generated from it (CI fails on drift).
std::string cli_reference_markdown();

}  // namespace ps::cli
