// End-to-end CLI regression tests for shirazctl. The binary path is injected
// by CMake as SHIRAZCTL_PATH; each test spawns the real executable, so the
// exit-code and usage contracts scripts rely on are pinned here.
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>

#include <gtest/gtest.h>

#include "common/json_parse.h"

namespace {

using shiraz::JsonValue;
using shiraz::parse_json;

struct CommandResult {
  int exit_code = -1;
  std::string output;  // stdout and stderr interleaved
};

/// Runs a shell snippet via popen (which already invokes `sh -c`), merging
/// stderr into the captured output. Snippets may freely use single quotes —
/// there is no extra quoting layer to fight.
CommandResult run_script(const std::string& script) {
  const std::string cmd = "{ " + script + " ; } 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  CommandResult r;
  std::array<char, 4096> buf{};
  std::size_t n = 0;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    r.output.append(buf.data(), n);
  }
  const int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

CommandResult run_binary(const std::string& binary, const std::string& args) {
  return run_script(binary + " " + args);
}

CommandResult run_command(const std::string& args) {
  return run_binary(SHIRAZCTL_PATH, args);
}

TEST(ShirazctlCli, UnknownCommandExitsTwoWithUsage) {
  const CommandResult r = run_command("frobnicate");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown command 'frobnicate'"), std::string::npos);
  EXPECT_NE(r.output.find("shirazctl <solve|"), std::string::npos)
      << "usage must follow the error";
}

TEST(ShirazctlCli, NoCommandExitsTwoWithUsage) {
  const CommandResult r = run_command("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("shirazctl <solve|"), std::string::npos);
}

TEST(ShirazctlCli, UsageListsTheTraceSubcommand) {
  const CommandResult r = run_command("frobnicate");
  EXPECT_NE(r.output.find("|trace|"), std::string::npos);
  EXPECT_NE(r.output.find("trace: --out="), std::string::npos);
}

TEST(ShirazctlCli, BadFlagValueExitsOne) {
  const CommandResult r = run_command("trace --reps=0");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("shirazctl:"), std::string::npos);
}

TEST(ShirazctlCli, TraceWritesALoadablePerfettoFile) {
  namespace fs = std::filesystem;
  const std::string out =
      (fs::temp_directory_path() / "shirazctl_cli_trace_test.json").string();
  fs::remove(out);

  const CommandResult r = run_command(
      "trace --k=26 --reps=2 --width=40 --t-total-hours=100 --out=" + out);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("legend:"), std::string::npos)
      << "trace prints the ASCII timeline";
  EXPECT_NE(r.output.find("Wrote " + out), std::string::npos);

  std::ifstream in(out);
  ASSERT_TRUE(in.good()) << "trace file missing";
  std::ostringstream buf;
  buf << in.rdbuf();
  const JsonValue doc = parse_json(buf.str());
  ASSERT_TRUE(doc.has("traceEvents"));
  EXPECT_FALSE(doc.at("traceEvents").array.empty());
  // Both repetitions render as Perfetto processes.
  bool saw_rep0 = false;
  bool saw_rep1 = false;
  for (const auto& entry : doc.at("traceEvents").array) {
    if (entry->at("ph").string != "M") continue;
    if (entry->at("name").string != "process_name") continue;
    const std::string& label = entry->at("args").at("name").string;
    saw_rep0 |= label == "rep 0";
    saw_rep1 |= label == "rep 1";
  }
  EXPECT_TRUE(saw_rep0);
  EXPECT_TRUE(saw_rep1);
  fs::remove(out);
}

TEST(ShirazctlCli, UsageListsTheScenariosSubcommand) {
  const CommandResult r = run_command("frobnicate");
  EXPECT_NE(r.output.find("|scenarios|"), std::string::npos);
  EXPECT_NE(r.output.find("scenarios: --dir="), std::string::npos);
}

TEST(ShirazctlCli, ScenariosListsTheShippedCorpus) {
  const CommandResult r =
      run_command("scenarios --dir=" SHIRAZ_TESTDATA_SCENARIOS);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  for (const char* id : {"baseline-weibull", "bathtub-wearout", "burst-storm",
                         "cascade-groups", "drifting-beta", "hetero-pools",
                         "markov-burst"}) {
    EXPECT_NE(r.output.find(id), std::string::npos) << id;
  }
  EXPECT_NE(r.output.find("mean gap (h)"), std::string::npos);
}

TEST(ShirazctlCli, ScenariosValidateReportsEveryFile) {
  const CommandResult r =
      run_command("scenarios --validate --dir=" SHIRAZ_TESTDATA_SCENARIOS);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("OK baseline-weibull"), std::string::npos);
  EXPECT_NE(r.output.find("7 scenarios valid (shiraz-scenario-v1)"),
            std::string::npos);
}

TEST(ShirazctlCli, ScenariosDescribePrintsTheRegimeDetail) {
  const CommandResult r = run_command(
      "scenarios --describe=markov-burst --dir=" SHIRAZ_TESTDATA_SCENARIOS);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("markov-burst"), std::string::npos);
  EXPECT_NE(r.output.find("long-run mean gap (h)"), std::string::npos);
}

TEST(ShirazctlCli, ScenariosUnknownIdExitsOne) {
  const CommandResult r = run_command(
      "scenarios --describe=no-such-id --dir=" SHIRAZ_TESTDATA_SCENARIOS);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("no scenario with id 'no-such-id'"),
            std::string::npos);
}

TEST(ShirazctlCli, ScenariosBadDirExitsTwoWithUsage) {
  const CommandResult r = run_command("scenarios --dir=/nonexistent-scenarios");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("does not exist"), std::string::npos);
  EXPECT_NE(r.output.find("shirazctl <solve|"), std::string::npos);
}

#ifdef SCENARIO_MATRIX_PATH
// Smoke the scenario-matrix bench end to end: a zero exit is a full
// InvariantAuditor pass over every (scheduler x scenario) cell plus the
// cross-worker bit-identity check, and --json must emit a valid
// shiraz-bench-v1 document.
TEST(ScenarioMatrixBench, MatrixRunsCleanAndEmitsBenchJson) {
  namespace fs = std::filesystem;
  const std::string out =
      (fs::temp_directory_path() / "shirazctl_cli_scenario_matrix.json")
          .string();
  fs::remove(out);

  const CommandResult r = run_binary(
      SCENARIO_MATRIX_PATH, "--reps=2 --jobs=2 --dir=" SHIRAZ_TESTDATA_SCENARIOS
                            " --json=" + out);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("All cells audited clean"), std::string::npos);

  std::ifstream in(out);
  ASSERT_TRUE(in.good()) << "bench json missing";
  std::ostringstream buf;
  buf << in.rdbuf();
  const JsonValue doc = parse_json(buf.str());
  EXPECT_EQ(doc.at("schema").string, "shiraz-bench-v1");
  EXPECT_EQ(doc.at("bench").string, "exp_scenario_matrix");
  EXPECT_EQ(doc.at("reps").number, 2.0);
  EXPECT_EQ(doc.at("config").at("scenarios").number, 7.0);

  bool saw_all_ok = false;
  for (const auto& m : doc.at("metrics").array) {
    if (m->at("name").string == "matrix.all_ok") {
      EXPECT_EQ(m->at("mean").number, 1.0);
      saw_all_ok = true;
    }
  }
  EXPECT_TRUE(saw_all_ok);
  fs::remove(out);
}
#endif  // SCENARIO_MATRIX_PATH

TEST(ShirazctlCli, PredictiveTracePassesItsOwnAudit) {
  namespace fs = std::filesystem;
  const std::string out =
      (fs::temp_directory_path() / "shirazctl_cli_predict_trace.json").string();
  fs::remove(out);

  // cmd_trace audits every repetition against its reported totals before
  // writing, so a zero exit is an InvariantAuditor pass on the alarm path.
  const CommandResult r = run_command(
      "trace --predict --k=26 --t-total-hours=100 --width=40 --out=" + out);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  std::ifstream in(out);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_FALSE(parse_json(buf.str()).at("traceEvents").array.empty());
  fs::remove(out);
}

TEST(ShirazctlCli, UsageListsTheServeAndQuerySubcommands) {
  const CommandResult r = run_command("frobnicate");
  EXPECT_NE(r.output.find("|serve|query|metrics>"), std::string::npos);
  EXPECT_NE(r.output.find("serve: --socket="), std::string::npos);
  EXPECT_NE(r.output.find("query: --socket="), std::string::npos);
}

TEST(ShirazctlCli, ServeWithoutSocketExitsTwoWithUsage) {
  const CommandResult r = run_command("serve");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("serve requires --socket=PATH"), std::string::npos);
  EXPECT_NE(r.output.find("shirazctl <solve|"), std::string::npos)
      << "usage must follow the error";
}

TEST(ShirazctlCli, ServeUnwritableSocketExitsTwoWithUsage) {
  const CommandResult r =
      run_command("serve --socket=/nonexistent-dir/shiraz.sock");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("bind"), std::string::npos);
  EXPECT_NE(r.output.find("shirazctl <solve|"), std::string::npos);
}

TEST(ShirazctlCli, ServeBadThreadsExitsTwoWithUsage) {
  const CommandResult r = run_command("serve --socket=/tmp/x.sock --threads=0");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--threads must be >= 1"), std::string::npos);
}

TEST(ShirazctlCli, QueryWithoutSocketExitsTwoWithUsage) {
  const CommandResult r = run_command("query");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("query requires --socket=PATH"), std::string::npos);
}

TEST(ShirazctlCli, QueryWithoutDaemonExitsOne) {
  const CommandResult r =
      run_command("query --socket=/tmp/shiraz-no-daemon.sock --timeout-s=0.1"
                  " < /dev/null");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("no daemon answering"), std::string::npos);
}

TEST(ShirazctlCli, UsageListsTheMetricsSubcommand) {
  const CommandResult r = run_command("frobnicate");
  EXPECT_NE(r.output.find("metrics>"), std::string::npos);
  EXPECT_NE(r.output.find("metrics: --socket="), std::string::npos);
}

TEST(ShirazctlCli, MetricsWithoutSocketExitsTwoWithUsage) {
  const CommandResult r = run_command("metrics");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("metrics requires --socket=PATH"), std::string::npos);
}

TEST(ShirazctlCli, MetricsSnapshotsALiveDaemon) {
  namespace fs = std::filesystem;
  const std::string sock =
      (fs::temp_directory_path() / "shirazctl_cli_metrics_test.sock").string();
  fs::remove(sock);

  // Boot the daemon, serve one solve over `query`, then snapshot the
  // registry three ways (table, --prometheus, --json) before shutting down.
  const std::string ctl = SHIRAZCTL_PATH;
  const std::string script =
      ctl + " serve --socket=" + sock + " --threads=2 & SERVER=$!; " +
      "printf '%s\\n' '{\"op\":\"solve_k\",\"delta_lw_s\":18,\"delta_hw_s\":1800}' | " +
      ctl + " query --socket=" + sock + " > /dev/null; " +
      ctl + " metrics --socket=" + sock + "; " +
      ctl + " metrics --socket=" + sock + " --prometheus; " +
      ctl + " metrics --socket=" + sock + " --json; " +
      "printf '%s\\n' '{\"op\":\"shutdown\"}' | " +
      ctl + " query --socket=" + sock + " > /dev/null; wait $SERVER";
  const CommandResult r = run_script(script);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  // Table mode names the per-op counter bumped by the session's own solve.
  EXPECT_NE(r.output.find("shiraz_serve_op_solve_k_total"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("shiraz_solver_cache_misses_total"),
            std::string::npos);
  EXPECT_NE(r.output.find("shiraz_solver_model_evaluations_total"),
            std::string::npos);
  // Prometheus mode emits the text exposition.
  EXPECT_NE(r.output.find("# TYPE shiraz_serve_requests_total counter"),
            std::string::npos);
  // Raw mode prints the shiraz-metrics-v1 response line.
  EXPECT_NE(r.output.find("\"schema\":\"shiraz-metrics-v1\""),
            std::string::npos);
  EXPECT_FALSE(fs::exists(sock));
}

TEST(ShirazctlCli, QueryStreamsSubscribeFramesBeforeTheResponse) {
  namespace fs = std::filesystem;
  const std::string sock =
      (fs::temp_directory_path() / "shirazctl_cli_subscribe_test.sock").string();
  fs::remove(sock);

  const std::string ctl = SHIRAZCTL_PATH;
  const std::string script =
      ctl + " serve --socket=" + sock + " --threads=2 & SERVER=$!; " +
      "printf '%s\\n' "
      "'{\"op\":\"subscribe\",\"delta_lw_s\":18,\"delta_hw_s\":1800,"
      "\"k\":26,\"reps\":2,\"seed\":3}' "
      "'{\"op\":\"shutdown\"}' | " +
      ctl + " query --socket=" + sock + "; CLIENT=$?; wait $SERVER; "
      "exit $((CLIENT + $?))";
  const CommandResult r = run_script(script);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("{\"stream\":\"event\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"op\":\"subscribe\""), std::string::npos);
  EXPECT_NE(r.output.find("\"events\":"), std::string::npos);
}

TEST(ShirazctlCli, QueryAfterShutdownExitsTwoWithDiagnostic) {
  namespace fs = std::filesystem;
  const std::string sock =
      (fs::temp_directory_path() / "shirazctl_cli_shutdown_test.sock").string();
  fs::remove(sock);

  // A request after the shutdown op finds the connection closed: the client
  // must say so and exit 2 — not die on an unexplained I/O error.
  const std::string ctl = SHIRAZCTL_PATH;
  const std::string script =
      ctl + " serve --socket=" + sock + " --threads=2 & SERVER=$!; " +
      "printf '%s\\n' '{\"op\":\"shutdown\"}' '{\"op\":\"stats\"}' | " +
      ctl + " query --socket=" + sock + "; CLIENT=$?; wait $SERVER; "
      "exit $CLIENT";
  const CommandResult r = run_script(script);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("server is shutting down"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"stopping\":true"), std::string::npos)
      << "the shutdown response itself must still print";
}

TEST(ShirazctlCli, ServeAnswersAScriptedQuerySession) {
  namespace fs = std::filesystem;
  const std::string sock =
      (fs::temp_directory_path() / "shirazctl_cli_serve_test.sock").string();
  fs::remove(sock);

  // Boot the daemon in the background, drive a full session through
  // `shirazctl query` (which polls until the socket accepts), and end with
  // a shutdown op so the daemon exits on its own.
  const std::string script =
      std::string(SHIRAZCTL_PATH) + " serve --socket=" + sock +
      " --threads=2 & SERVER=$!; "
      "printf '%s\\n' "
      "'{\"op\":\"solve_k\",\"id\":1,\"delta_lw_s\":18,\"delta_hw_s\":1800}' "
      "'{\"op\":\"oci\",\"delta_s\":60}' "
      "'{\"op\":\"stats\"}' "
      "'{\"op\":\"shutdown\"}' "
      "| " + std::string(SHIRAZCTL_PATH) + " query --socket=" + sock +
      "; CLIENT=$?; wait $SERVER; exit $((CLIENT + $?))";
  const CommandResult r = run_script(script);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"op\":\"solve_k\",\"id\":1,\"k\":26"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"op\":\"oci\""), std::string::npos);
  EXPECT_NE(r.output.find("\"protocol\":\"shiraz-serve-v1\""),
            std::string::npos);
  EXPECT_NE(r.output.find("\"stopping\":true"), std::string::npos);
  EXPECT_NE(r.output.find("shutdown complete"), std::string::npos);
  EXPECT_FALSE(fs::exists(sock)) << "daemon must remove its socket on exit";
}

}  // namespace
