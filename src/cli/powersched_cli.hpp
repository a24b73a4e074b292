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
// exit-code mapping (0 success, 1 runtime failure, 2 usage error).
//
// Living in src/ rather than tools/ lets the legacy binaries
// (powersched_sweep, powersched_report, every bench_*) be real deprecation
// shims: a one-line main forwarding into the same implementation, so their
// stdout stays byte-identical to the `powersched` equivalent (CI asserts
// this per binary).
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

/// Deprecation shim for the legacy single-command binaries: prints a
/// one-line notice to stderr, then runs `powersched <command> <argv[1..]>`.
/// powersched_sweep forwards to "sweep", powersched_report to "report" —
/// same options, byte-identical stdout.
int legacy_shim_main(const char* command, int argc, char** argv);

/// Deprecation shim for the bench binaries: prints a notice to stderr, then
/// runs `powersched sweep --preset <preset> <argv[1..]>`. The forwarded
/// argv means `bench_e15 --trials 2 --csv e15.csv` now works — the legacy
/// wrappers gained the full sweep option surface by becoming shims.
int preset_shim_main(const char* preset, int argc, char** argv);

/// The full CLI reference as Markdown — every command, option, and the exit
/// code contract. `powersched help --markdown` prints exactly this, and
/// docs/cli.md is generated from it (CI fails on drift).
std::string cli_reference_markdown();

}  // namespace ps::cli
