// Tests for the `powersched` multi-command CLI library: command dispatch,
// the strict shared option parser (malformed shard specs, algo-param
// pairs, numbers — all usage errors now, never silent fallthrough), the
// documented 0/1/2 exit-code contract, and the generated CLI reference
// (docs/cli.md) covering every command.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "cli/powersched_cli.hpp"

namespace ps::cli {
namespace {

int run_cli(std::initializer_list<const char*> args) {
  return run(std::vector<std::string>(args.begin(), args.end()));
}

TEST(Cli, DispatchAndHelp) {
  EXPECT_EQ(run_cli({}), 2);               // no command: usage
  EXPECT_EQ(run_cli({"no-such-cmd"}), 2);  // unknown command: usage
  EXPECT_EQ(run_cli({"help"}), 0);
  EXPECT_EQ(run_cli({"help", "sweep"}), 0);
  EXPECT_EQ(run_cli({"help", "merge"}), 0);
  EXPECT_EQ(run_cli({"help", "no-such-cmd"}), 2);
  EXPECT_EQ(run_cli({"help", "sweep", "merge"}), 2);
  EXPECT_EQ(run_cli({"--help"}), 0);
}

TEST(Cli, UnknownOptionsAndValues) {
  EXPECT_EQ(run_cli({"sweep", "--bogus"}), 2);
  EXPECT_EQ(run_cli({"sweep", "--preset"}), 2);       // missing value
  EXPECT_EQ(run_cli({"list-solvers", "--timing"}), 2);  // wrong command
  EXPECT_EQ(run_cli({"sweep", "stray-positional"}), 2);
  EXPECT_EQ(run_cli({"sweep", "--timing=1"}), 2);     // flag takes no value
}

TEST(Cli, SweepUsageErrors) {
  EXPECT_EQ(run_cli({"sweep", "--preset", "e99"}), 2);
  EXPECT_EQ(run_cli({"sweep"}), 2);  // nothing to run
  // Presets define their own plans.
  EXPECT_EQ(run_cli({"sweep", "--preset", "e15", "--solvers", "a"}), 2);
  // Strict numbers: the old atoi path ran "5x" as 5 silently.
  EXPECT_EQ(run_cli({"sweep", "--preset", "e15", "--trials", "5x"}), 2);
  EXPECT_EQ(run_cli({"sweep", "--preset", "e15", "--trials", "-3"}), 2);
  EXPECT_EQ(run_cli({"sweep", "--preset", "e15", "--trials", "0"}), 2);
  EXPECT_EQ(run_cli({"sweep", "--preset", "e15", "--seed", "1x"}), 2);
  EXPECT_EQ(run_cli({"sweep", "--preset", "e15", "--threads", "-1"}), 2);
  // The listing and merge modes are their own commands (list-presets,
  // list-solvers, merge); sweep does not accept them as flags.
  EXPECT_EQ(run_cli({"sweep", "--preset", "e15", "--markdown"}), 2);
  EXPECT_EQ(run_cli({"sweep", "--list-presets"}), 2);
  EXPECT_EQ(run_cli({"sweep", "--list"}), 2);
  EXPECT_EQ(run_cli({"sweep", "--merge", "a.cache"}), 2);
  // --report needs a preset's PlotHints.
  EXPECT_EQ(run_cli({"sweep", "--solvers", "powerdown.break_even",
                     "--report", "somewhere"}),
            2);
}

TEST(Cli, MalformedShardSpecsAreUsageErrors) {
  for (const char* shard : {"3/3", "-1/2", "a/b", "1/0", "1", "/2", "2/",
                            "0x1/2", "+1/2"}) {
    EXPECT_EQ(run_cli({"sweep", "--preset", "e15", "--shard", shard}), 2)
        << shard;
  }
}

TEST(Cli, MalformedPlanFlagsAreUsageErrors) {
  EXPECT_EQ(run_cli({"sweep", "--solvers", "powerdown.break_even", "--grid",
                     "dist"}),
            2);
  EXPECT_EQ(run_cli({"sweep", "--solvers", "powerdown.break_even", "--grid",
                     "dist=1,zz"}),
            2);
  EXPECT_EQ(run_cli({"sweep", "--solvers", "powerdown.break_even", "--param",
                     "alpha=1,2"}),
            2);
  // --algo-param takes a bare name, not a pair — the old CLI accepted
  // "eps=0.5" and silently created an algo param that matched nothing.
  EXPECT_EQ(run_cli({"sweep", "--solvers", "powerdown.break_even",
                     "--algo-param", "eps=0.5"}),
            2);
  // ...and a bare name must still match something in the plan.
  EXPECT_EQ(run_cli({"sweep", "--solvers", "powerdown.break_even",
                     "--algo-param", "bogus"}),
            2);
  EXPECT_EQ(run_cli({"sweep", "--solvers", "nosuch.solver"}), 2);
}

TEST(Cli, MergeAndReportUsageErrors) {
  EXPECT_EQ(run_cli({"merge", "--preset", "e15"}), 2);  // no inputs
  EXPECT_EQ(run_cli({"report"}), 2);
  EXPECT_EQ(run_cli({"report", "--preset", "e15"}), 2);  // no csv source
  EXPECT_EQ(run_cli({"report", "--preset", "e99", "--csv", "x.csv"}), 2);
  EXPECT_EQ(run_cli({"report", "--all"}), 2);  // --all needs --csv-dir
  EXPECT_EQ(run_cli({"report", "--all", "--csv-dir", "d", "--preset", "e1"}),
            2);
}

TEST(Cli, RuntimeFailuresExitOne) {
  // A merge input that does not exist is a runtime failure, not usage.
  EXPECT_EQ(run_cli({"merge", "--preset", "e15",
                     "cli_test_does_not_exist.cache"}),
            1);
  // A report over a missing CSV likewise.
  const std::string out_dir = ::testing::TempDir() + "cli_test_reports";
  EXPECT_EQ(run_cli({"report", "--preset", "e15", "--csv",
                     "cli_test_does_not_exist.csv", "--out",
                     out_dir.c_str()}),
            1);
}

TEST(Cli, SweepRunsEndToEndThroughSession) {
  const std::string csv = ::testing::TempDir() + "cli_test_e15.csv";
  EXPECT_EQ(run_cli({"sweep", "--preset", "e15", "--trials", "1", "--csv",
                     csv.c_str()}),
            0);
  std::ifstream in(csv);
  EXPECT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("solver"), std::string::npos);
  std::remove(csv.c_str());
}

TEST(Cli, BenchUsageAndCompare) {
  EXPECT_EQ(run_cli({"help", "bench"}), 0);
  EXPECT_EQ(run_cli({"bench", "--presets", "no_such_preset"}), 2);
  EXPECT_EQ(run_cli({"bench", "--trials", "0"}), 2);
  EXPECT_EQ(run_cli({"bench", "--reps", "bad"}), 2);
  EXPECT_EQ(run_cli({"bench", "--threshold", "2.0"}), 2);  // needs --compare
  // Compare mode wants exactly OLD NEW.
  EXPECT_EQ(run_cli({"bench", "--compare", "only-one.json"}), 2);
  EXPECT_EQ(run_cli({"bench", "--compare", "a.json", "b.json", "c.json"}), 2);
  EXPECT_EQ(run_cli({"bench", "--compare", "--threshold", "0", "a", "b"}), 2);
  // Missing snapshot files are runtime failures, not usage.
  EXPECT_EQ(run_cli({"bench", "--compare", "cli_test_no_old.json",
                     "cli_test_no_new.json"}),
            1);

  // Measure a tiny snapshot twice, then compare: identical work passes.
  const std::string old_json = ::testing::TempDir() + "cli_test_bench_old.json";
  const std::string new_json = ::testing::TempDir() + "cli_test_bench_new.json";
  EXPECT_EQ(run_cli({"bench", "--presets", "p_micro", "--trials", "1",
                     "--reps", "1", "--warmup", "0", "--out",
                     old_json.c_str()}),
            0);
  EXPECT_EQ(run_cli({"bench", "--presets", "p_micro", "--trials", "1",
                     "--reps", "1", "--warmup", "0", "--rev", "head",
                     "--out", new_json.c_str()}),
            0);
  // A generous threshold always passes two runs of the same kernels.
  EXPECT_EQ(run_cli({"bench", "--compare", "--threshold", "1000",
                     old_json.c_str(), new_json.c_str()}),
            0);
  std::remove(old_json.c_str());
  std::remove(new_json.c_str());
}

TEST(Cli, MetricsFlagsWriteSideFiles) {
  const std::string metrics_json =
      ::testing::TempDir() + "cli_test_metrics.json";
  const std::string trace_json = ::testing::TempDir() + "cli_test_trace.json";
  EXPECT_EQ(run_cli({"sweep", "--preset", "e15", "--trials", "1",
                     "--metrics", "--metrics-json", metrics_json.c_str(),
                     "--trace", trace_json.c_str()}),
            0);
  std::ifstream metrics_in(metrics_json);
  std::string metrics_text((std::istreambuf_iterator<char>(metrics_in)),
                           std::istreambuf_iterator<char>());
  EXPECT_NE(metrics_text.find("powersched-metrics v1"), std::string::npos);
  EXPECT_NE(metrics_text.find("sweep.trials.run"), std::string::npos);
  std::ifstream trace_in(trace_json);
  std::string trace_text((std::istreambuf_iterator<char>(trace_in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(trace_text.find("traceEvents"), std::string::npos);
  EXPECT_NE(trace_text.find("session.run"), std::string::npos);
  std::remove(metrics_json.c_str());
  std::remove(trace_json.c_str());
}

TEST(Cli, MarkdownReferenceCoversEveryCommand) {
  const std::string markdown = cli_reference_markdown();
  for (const char* heading :
       {"# powersched CLI reference", "## powersched sweep",
        "## powersched merge", "## powersched report",
        "## powersched bench", "## powersched solve",
        "## powersched serve", "## powersched loadgen",
        "## powersched list-presets", "## powersched list-solvers",
        "## powersched help"}) {
    EXPECT_NE(markdown.find(heading), std::string::npos) << heading;
  }
  // The exit-code contract and the key option surface are documented.
  EXPECT_NE(markdown.find("Exit codes"), std::string::npos);
  for (const char* option :
       {"--shard", "--cache-file", "--csv", "--report", "--algo-param",
        "--inputs", "--out", "--metrics", "--metrics-json", "--trace",
        "--progress", "--compare", "--threshold", "--port", "--queue-limit",
        "--instance", "--want-schedule", "--deadline-ms", "--latency-csv",
        "--summary-csv", "--latency-svg", "--allow-errors"}) {
    EXPECT_NE(markdown.find(option), std::string::npos) << option;
  }
  // Removed sweep aliases and test hooks stay out of the documented
  // surface.
  EXPECT_EQ(markdown.find("`--merge`"), std::string::npos);
  EXPECT_EQ(markdown.find("`--list`"), std::string::npos);
  EXPECT_EQ(markdown.find("--debug-delay-ms"), std::string::npos);
}

TEST(Cli, HelpListsTestHooksSeparately) {
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(run_cli({"help", "serve"}), 0);
  const std::string help = ::testing::internal::GetCapturedStdout();
  const std::size_t hooks = help.find("\ntest hooks:\n");
  ASSERT_NE(hooks, std::string::npos) << help;
  EXPECT_GT(help.find("--debug-delay-ms"), hooks);
}

TEST(Cli, SolveUsageErrorsAndEndToEnd) {
  EXPECT_EQ(run_cli({"help", "solve"}), 0);
  EXPECT_EQ(run_cli({"solve"}), 2);  // needs --solver
  EXPECT_EQ(run_cli({"solve", "--solver", "no.such"}), 2);
  EXPECT_EQ(run_cli({"solve", "--solver", "power.greedy", "--trials", "0"}),
            2);
  EXPECT_EQ(run_cli({"solve", "--solver", "power.greedy", "--trials", "2x"}),
            2);
  EXPECT_EQ(run_cli({"solve", "--solver", "power.greedy", "--param",
                     "alpha=1,2"}),
            2);  // value lists belong to sweep
  EXPECT_EQ(run_cli({"solve", "--solver", "power.greedy", "--param",
                     "alpha"}),
            2);
  EXPECT_EQ(run_cli({"solve", "--solver", "power.greedy", "--id", ""}), 2);
  // want_schedule needs an explicit instance.
  EXPECT_EQ(run_cli({"solve", "--solver", "power.greedy", "--want-schedule"}),
            2);
  // A missing instance file is a runtime failure, not usage.
  EXPECT_EQ(run_cli({"solve", "--solver", "power.greedy", "--instance",
                     "cli_test_does_not_exist.instance"}),
            1);
  // More jobs than processors*horizon slots is a runtime failure, not a
  // crash in the instance generator.
  EXPECT_EQ(run_cli({"solve", "--solver", "power.greedy", "--param",
                     "jobs=50", "--param", "processors=1", "--param",
                     "horizon=2"}),
            1);
  // Shapes whose instance draws can never succeed (a value target above
  // the total value; more agreeable jobs than the horizon schedules) stop
  // at the retry cap with a runtime failure instead of spinning.
  const std::vector<std::vector<std::string>> unreachable = {
      {"solve", "--solver", "prize.bicriteria", "--param", "zfrac=2"},
      {"solve", "--solver", "prize.value_floor", "--param", "zfrac=2"},
      {"solve", "--solver", "dp.agreeable", "--param", "jobs=50", "--param",
       "horizon=10"}};
  for (const auto& args : unreachable) {
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(run(args), 1) << args[2];
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(1))
        << args[2];
  }
  // The happy path answers on stdout and exits 0.
  EXPECT_EQ(run_cli({"solve", "--solver", "power.greedy", "--trials", "2"}),
            0);
}

TEST(Cli, ServeAndLoadgenUsageErrors) {
  EXPECT_EQ(run_cli({"help", "serve"}), 0);
  EXPECT_EQ(run_cli({"help", "loadgen"}), 0);
  EXPECT_EQ(run_cli({"serve", "--port", "70000"}), 2);
  EXPECT_EQ(run_cli({"serve", "--port", "-1"}), 2);
  EXPECT_EQ(run_cli({"serve", "--queue-limit", "0"}), 2);
  EXPECT_EQ(run_cli({"serve", "--threads", "zoom"}), 2);
  EXPECT_EQ(run_cli({"serve", "--host", ""}), 2);
  EXPECT_EQ(run_cli({"loadgen"}), 2);  // needs --port
  EXPECT_EQ(run_cli({"loadgen", "--port", "0"}), 2);
  EXPECT_EQ(run_cli({"loadgen", "--port", "1024", "--rate", "-3"}), 2);
  EXPECT_EQ(run_cli({"loadgen", "--port", "1024", "--requests", "0"}), 2);
  EXPECT_EQ(run_cli({"loadgen", "--port", "1024", "--deadline-ms", "x"}), 2);
  // Trace mode and synthetic-mode flags do not combine.
  EXPECT_EQ(run_cli({"loadgen", "--port", "1024", "--trace", "t.jsonl",
                     "--requests", "5"}),
            2);
  // A connection refusal is a runtime failure (port 1 is never listening).
  EXPECT_EQ(run_cli({"loadgen", "--port", "1", "--requests", "1"}), 1);
}

}  // namespace
}  // namespace ps::cli
