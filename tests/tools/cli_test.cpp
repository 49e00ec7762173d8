#include "cli_commands.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "core/model_params.h"
#include "trace/csv_io.h"

namespace resmodel::cli {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

int run(const std::vector<std::string>& args, std::string* out_text = nullptr,
        std::string* err_text = nullptr) {
  std::ostringstream out, err;
  const int code = run_cli(args, out, err);
  if (out_text) *out_text = out.str();
  if (err_text) *err_text = err.str();
  return code;
}

TEST(Cli, NoArgsPrintsUsage) {
  std::string err;
  EXPECT_EQ(run({}, nullptr, &err), kUsage);
  EXPECT_NE(err.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  std::string err;
  EXPECT_EQ(run({"frobnicate"}, nullptr, &err), kUsage);
  EXPECT_NE(err.find("unknown command"), std::string::npos);
}

TEST(Cli, HelpPrintsUsageToStdout) {
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{
           {"--help"}, {"help"}, {"serve", "--help"},
           {"sweep", "model.txt", "--help"}}) {
    SCOPED_TRACE(args.front());
    std::string out, err;
    EXPECT_EQ(run(args, &out, &err), kOk);
    EXPECT_EQ(out, usage_text());
    EXPECT_TRUE(err.empty());
  }
}

TEST(Cli, SynthWritesTrace) {
  const std::string path = temp_path("cli_synth.csv");
  std::string out;
  ASSERT_EQ(run({"synth", path, "500", "3"}, &out), kOk);
  EXPECT_NE(out.find("host records"), std::string::npos);
  const trace::TraceStore store = trace::read_csv_file(path);
  EXPECT_GT(store.size(), 1000u);
}

TEST(Cli, SweepRunsPolicyGrid) {
  const std::string model_path = temp_path("cli_sweep_model.txt");
  {
    std::ofstream model_out(model_path);
    model_out << core::paper_params().serialize();
  }
  std::string out;
  ASSERT_EQ(run({"sweep", model_path, "2010-06-01", "300", "500,1000",
                 "--policies=rr,ect", "--threads=2", "--seed=5"},
                &out),
            kOk);
  // 0 is a valid workload seed (unlike the count arguments).
  EXPECT_EQ(run({"sweep", model_path, "2010-06-01", "100", "200",
                 "--policies=ect", "--seed=0"}),
            kOk);
  EXPECT_NE(out.find("Policy sweep"), std::string::npos);
  EXPECT_NE(out.find("dynamic ECT"), std::string::npos);
  EXPECT_NE(out.find("Correlated"), std::string::npos);
  EXPECT_NE(out.find("Independent"), std::string::npos);
  EXPECT_NE(out.find("500 tasks"), std::string::npos);
  EXPECT_NE(out.find("1000 tasks"), std::string::npos);
}

TEST(Cli, SweepChurnFlags) {
  const std::string model_path = temp_path("cli_sweep_churn_model.txt");
  {
    std::ofstream model_out(model_path);
    model_out << core::paper_params().serialize();
  }
  // --churn appends all three interruption policies beside the base set.
  std::string out;
  ASSERT_EQ(run({"sweep", model_path, "2010-06-01", "200", "400",
                 "--policies=ect", "--churn"},
                &out),
            kOk);
  EXPECT_NE(out.find("dynamic ECT"), std::string::npos);
  EXPECT_NE(out.find("churn ECT (checkpoint)"), std::string::npos);
  EXPECT_NE(out.find("churn ECT (restart)"), std::string::npos);
  EXPECT_NE(out.find("churn ECT (abandon)"), std::string::npos);
  EXPECT_NE(out.find("churn cells:"), std::string::npos);

  // --interrupt names a subset (and implies --churn).
  ASSERT_EQ(run({"sweep", model_path, "2010-06-01", "200", "400",
                 "--policies=ect", "--interrupt=restart"},
                &out),
            kOk);
  EXPECT_NE(out.find("churn ECT (restart)"), std::string::npos);
  EXPECT_EQ(out.find("churn ECT (checkpoint)"), std::string::npos);

  // --avail-coupling annotates the header and runs coupled.
  ASSERT_EQ(run({"sweep", model_path, "2010-06-01", "200", "400",
                 "--policies=ect", "--churn", "--avail-coupling=-0.5"},
                &out),
            kOk);
  EXPECT_NE(out.find("speed-coupled availability"), std::string::npos);

  // --churn-levels tunes the kernel's lookahead depth and, like
  // --interrupt, implies --churn.
  ASSERT_EQ(run({"sweep", model_path, "2010-06-01", "200", "400",
                 "--policies=ect", "--churn-levels=2"},
                &out),
            kOk);
  EXPECT_NE(out.find("churn ECT (checkpoint)"), std::string::npos);
}

TEST(Cli, SweepRejectsBadChurnFlags) {
  const std::string model_path = temp_path("cli_sweep_churn_bad_model.txt");
  {
    std::ofstream model_out(model_path);
    model_out << core::paper_params().serialize();
  }
  EXPECT_EQ(run({"sweep", model_path, "2010-06-01", "100", "50",
                 "--interrupt=explode"}),
            kFailure);
  EXPECT_EQ(run({"sweep", model_path, "2010-06-01", "100", "50",
                 "--avail-coupling=2.0"}),
            kFailure);
  EXPECT_EQ(run({"sweep", model_path, "2010-06-01", "100", "50",
                 "--avail-coupling=fast"}),
            kFailure);
  // Coupling with nothing to consume it (no --availability, no churn
  // policy) must be refused, not silently ignored.
  std::string err;
  EXPECT_EQ(run({"sweep", model_path, "2010-06-01", "100", "50",
                 "--policies=ect", "--avail-coupling=0.5"},
                nullptr, &err),
            kUsage);
  EXPECT_NE(err.find("--avail-coupling needs"), std::string::npos);
  // With --availability it is consumed even without churn policies.
  EXPECT_EQ(run({"sweep", model_path, "2010-06-01", "100", "50",
                 "--policies=ect", "--availability",
                 "--avail-coupling=0.5"}),
            kOk);
  // --churn-levels is validated up front like the other knobs: zero,
  // over-depth and garbage are all refused before any cell runs.
  EXPECT_EQ(run({"sweep", model_path, "2010-06-01", "100", "50",
                 "--churn-levels=0"}),
            kFailure);
  EXPECT_EQ(run({"sweep", model_path, "2010-06-01", "100", "50",
                 "--churn-levels=99"}),
            kFailure);
  EXPECT_EQ(run({"sweep", model_path, "2010-06-01", "100", "50",
                 "--churn-levels=many"}),
            kFailure);
}

TEST(Cli, SweepRejectsBadArgs) {
  const std::string model_path = temp_path("cli_sweep_bad_model.txt");
  {
    std::ofstream model_out(model_path);
    model_out << core::paper_params().serialize();
  }
  EXPECT_EQ(run({"sweep"}), kUsage);
  std::string err;
  EXPECT_EQ(run({"sweep", model_path, "2010-06-01", "100", "--frobnicate"},
                nullptr, &err),
            kUsage);
  EXPECT_NE(err.find("unknown flag"), std::string::npos);
  EXPECT_EQ(run({"sweep", model_path, "2010-06-01", "100", "50",
                 "--policies=warp"}),
            kFailure);
  // Negative seeds must not silently wrap through stoull.
  EXPECT_EQ(run({"sweep", model_path, "2010-06-01", "100", "50",
                 "--seed=-1"}),
            kFailure);
}

TEST(Cli, BackendsPrintsDispatchTable) {
  std::string out;
  ASSERT_EQ(run({"backends"}, &out), kOk);
  EXPECT_NE(out.find("cpu features:"), std::string::npos);
  // Every requested arm appears with its resolution; scalar and blocked
  // always resolve to themselves regardless of the CPU.
  EXPECT_NE(out.find("auto"), std::string::npos);
  EXPECT_NE(out.find("scalar"), std::string::npos);
  EXPECT_NE(out.find("blocked"), std::string::npos);
  EXPECT_NE(out.find("simd"), std::string::npos);
  std::string err;
  EXPECT_EQ(run({"backends", "extra"}, nullptr, &err), kUsage);
  EXPECT_NE(err.find("no arguments"), std::string::npos);
}

TEST(Cli, SweepBackendFlag) {
  const std::string model_path = temp_path("cli_sweep_backend_model.txt");
  {
    std::ofstream model_out(model_path);
    model_out << core::paper_params().serialize();
  }
  // Every arm must accept the grid and produce identical makespans — the
  // bit-identity contract surfaced at the CLI level (same seed, same
  // hosts, only the kernel arm differs).
  std::string auto_out, scalar_out, blocked_out, simd_out;
  ASSERT_EQ(run({"sweep", model_path, "2010-06-01", "200", "400",
                 "--policies=ect,pull", "--churn", "--seed=7",
                 "--backend=auto"},
                &auto_out),
            kOk);
  ASSERT_EQ(run({"sweep", model_path, "2010-06-01", "200", "400",
                 "--policies=ect,pull", "--churn", "--seed=7",
                 "--backend=scalar"},
                &scalar_out),
            kOk);
  ASSERT_EQ(run({"sweep", model_path, "2010-06-01", "200", "400",
                 "--policies=ect,pull", "--churn", "--seed=7",
                 "--backend=blocked"},
                &blocked_out),
            kOk);
  ASSERT_EQ(run({"sweep", model_path, "2010-06-01", "200", "400",
                 "--policies=ect,pull", "--churn", "--seed=7",
                 "--backend=simd"},
                &simd_out),
            kOk);
  EXPECT_EQ(auto_out, scalar_out);
  EXPECT_EQ(auto_out, blocked_out);
  EXPECT_EQ(auto_out, simd_out);
  std::string err;
  EXPECT_EQ(run({"sweep", model_path, "2010-06-01", "100", "50",
                 "--backend=quantum"},
                nullptr, &err),
            kFailure);
  EXPECT_NE(err.find("bad --backend"), std::string::npos);
}

TEST(Cli, SweepReplicationFlags) {
  const std::string model_path = temp_path("cli_sweep_repl_model.txt");
  {
    std::ofstream model_out(model_path);
    model_out << core::paper_params().serialize();
  }
  // The full robustness surface: quorum replication, deadline re-issue,
  // fault mix. Default policies narrow to the ECT family and the outcome
  // table is emitted.
  std::string out;
  ASSERT_EQ(run({"sweep", model_path, "2010-06-01", "200", "400",
                 "--replication=2/3", "--deadline-days=4", "--backoff=1.5",
                 "--retries=2", "--fault-mix=crash:0.1,corrupt:0.05",
                 "--seed=7"},
                &out),
            kOk);
  EXPECT_NE(out.find("replication outcomes (2-of-3 quorum"), std::string::npos);
  EXPECT_NE(out.find("Reissues"), std::string::npos);
  EXPECT_EQ(out.find("round robin"), std::string::npos);  // narrowed grid
  // Deterministic: the identical invocation reproduces the identical
  // tables, counters included.
  std::string again;
  ASSERT_EQ(run({"sweep", model_path, "2010-06-01", "200", "400",
                 "--replication=2/3", "--deadline-days=4", "--backoff=1.5",
                 "--retries=2", "--fault-mix=crash:0.1,corrupt:0.05",
                 "--seed=7"},
                &again),
            kOk);
  EXPECT_EQ(out, again);
  // Composes with churn (the churn columns join the narrowed grid).
  std::string churn_out;
  ASSERT_EQ(run({"sweep", model_path, "2010-06-01", "150", "300",
                 "--churn", "--replication=2/3", "--fault-mix=crash:0.1",
                 "--seed=7"},
                &churn_out),
            kOk);
  EXPECT_NE(churn_out.find("churn ECT (checkpoint)"), std::string::npos);
  EXPECT_NE(churn_out.find("replication outcomes"), std::string::npos);
}

TEST(Cli, SweepRejectsBadReplicationFlags) {
  const std::string model_path = temp_path("cli_sweep_repl_bad_model.txt");
  {
    std::ofstream model_out(model_path);
    model_out << core::paper_params().serialize();
  }
  std::string err;
  EXPECT_EQ(run({"sweep", model_path, "2010-06-01", "100", "50",
                 "--replication=3"},
                nullptr, &err),
            kFailure);
  EXPECT_NE(err.find("bad --replication"), std::string::npos);
  // Quorum above the replica count is caught by config validation.
  EXPECT_EQ(run({"sweep", model_path, "2010-06-01", "100", "50",
                 "--replication=4/3"},
                nullptr, &err),
            kFailure);
  EXPECT_EQ(run({"sweep", model_path, "2010-06-01", "100", "50",
                 "--fault-mix=gremlin:0.1"},
                nullptr, &err),
            kFailure);
  EXPECT_NE(err.find("bad --fault-mix"), std::string::npos);
  EXPECT_EQ(run({"sweep", model_path, "2010-06-01", "100", "50",
                 "--fault-mix=crash:0.7,corrupt:0.7"},
                nullptr, &err),
            kFailure);
  EXPECT_EQ(run({"sweep", model_path, "2010-06-01", "100", "50",
                 "--deadline-days=-1"},
                nullptr, &err),
            kFailure);
  EXPECT_NE(err.find("bad --deadline-days"), std::string::npos);
  // Static policies cannot honor replication deadlines: explicit
  // --policies=rr with replication is refused by the sweep.
  EXPECT_EQ(run({"sweep", model_path, "2010-06-01", "100", "50",
                 "--policies=rr", "--replication=2/3"},
                nullptr, &err),
            kFailure);
  // Re-issue knobs without a deadline would do nothing (no deadline, no
  // re-issue round) — alone or beside --replication, they are refused.
  for (const std::string flag : {"--retries=3", "--backoff=1.5"}) {
    for (const bool with_replication : {false, true}) {
      std::vector<std::string> args = {"sweep", model_path, "2010-06-01",
                                       "100", "50", "--policies=ect", flag};
      if (with_replication) args.push_back("--replication=2/3");
      EXPECT_EQ(run(args, nullptr, &err), kUsage) << flag;
      EXPECT_NE(err.find(flag.substr(0, flag.find('=')) +
                         " needs --deadline-days"),
                std::string::npos)
          << err;
    }
  }
}

TEST(Cli, SynthRejectsBadArgs) {
  EXPECT_EQ(run({"synth"}), kUsage);
  EXPECT_EQ(run({"synth", temp_path("x.csv"), "notanumber"}), kFailure);
}

TEST(Cli, FullPipelineSynthFitGenerateValidatePredict) {
  const std::string trace_path = temp_path("cli_pipe.csv");
  const std::string model_path = temp_path("cli_pipe_model.txt");
  const std::string hosts_path = temp_path("cli_pipe_hosts.csv");

  ASSERT_EQ(run({"synth", trace_path, "800", "11"}), kOk);
  std::string out;
  ASSERT_EQ(run({"fit", trace_path, model_path}, &out), kOk);
  EXPECT_NE(out.find("1:2 core ratio law"), std::string::npos);

  ASSERT_EQ(run({"generate", model_path, "2011-01-01", "200", hosts_path},
                &out),
            kOk);
  // Generated CSV: the population format's header + 200 rows.
  std::ifstream hosts(hosts_path);
  ASSERT_TRUE(hosts.good());
  std::string line;
  ASSERT_TRUE(std::getline(hosts, line));
  EXPECT_EQ(line,
            "cores,memory_per_core_mb,memory_mb,whetstone_mips,"
            "dhrystone_mips,disk_avail_gb");
  int lines = 1;
  while (std::getline(hosts, line)) ++lines;
  EXPECT_EQ(lines, 201);

  // generate writes what pack reads: generate -> pack -> unpack gives
  // back the generated file byte for byte.
  const std::string snap_path = temp_path("cli_pipe_hosts.snap");
  const std::string back_path = temp_path("cli_pipe_hosts_back.csv");
  ASSERT_EQ(run({"pack", hosts_path, snap_path}, &out), kOk);
  EXPECT_NE(out.find("packed 200 population hosts"), std::string::npos);
  ASSERT_EQ(run({"unpack", snap_path, back_path}), kOk);
  EXPECT_EQ(read_file(back_path), read_file(hosts_path));

  ASSERT_EQ(run({"predict", model_path, "2014"}, &out), kOk);
  EXPECT_NE(out.find("Mean cores"), std::string::npos);

  ASSERT_EQ(run({"validate", model_path, trace_path, "2009-06-01"}, &out),
            kOk);
  EXPECT_NE(out.find("mu actual"), std::string::npos);
}

TEST(Cli, GenerateRejectsBadModelFile) {
  const std::string bad_model = temp_path("cli_bad_model.txt");
  std::ofstream(bad_model) << "not a model\n";
  std::string err;
  EXPECT_EQ(run({"generate", bad_model, "2011-01-01", "10",
                 temp_path("unused.csv")},
                nullptr, &err),
            kFailure);
  EXPECT_FALSE(err.empty());
}

TEST(Cli, GenerateRejectsBadDate) {
  const std::string trace_path = temp_path("cli_gen.csv");
  const std::string model_path = temp_path("cli_gen_model.txt");
  ASSERT_EQ(run({"synth", trace_path, "500", "13"}), kOk);
  ASSERT_EQ(run({"fit", trace_path, model_path}), kOk);
  EXPECT_EQ(run({"generate", model_path, "June 2011", "10",
                 temp_path("unused2.csv")}),
            kFailure);
}

TEST(Cli, ValidateFailsOnEmptySnapshot) {
  const std::string trace_path = temp_path("cli_val.csv");
  const std::string model_path = temp_path("cli_val_model.txt");
  ASSERT_EQ(run({"synth", trace_path, "500", "17"}), kOk);
  ASSERT_EQ(run({"fit", trace_path, model_path}), kOk);
  std::string err;
  EXPECT_EQ(run({"validate", model_path, trace_path, "2030-01-01"}, nullptr,
                &err),
            kFailure);
  EXPECT_NE(err.find("no active hosts"), std::string::npos);
}

TEST(Cli, CollectWritesTrace) {
  const std::string path = temp_path("cli_collect.csv");
  std::string out;
  ASSERT_EQ(run({"collect", path, "150", "19"}, &out), kOk);
  EXPECT_NE(out.find("scheduler contacts"), std::string::npos);
  const trace::TraceStore store = trace::read_csv_file(path);
  EXPECT_GT(store.size(), 200u);
}

TEST(Cli, FitRejectsMissingTrace) {
  std::string err;
  EXPECT_EQ(run({"fit", "/no/such/file.csv", temp_path("m.txt")}, nullptr,
                &err),
            kFailure);
}

TEST(Cli, GenerateWithCorrelationModels) {
  const std::string trace_path = temp_path("cli_corr.csv");
  const std::string model_path = temp_path("cli_corr_model.txt");
  ASSERT_EQ(run({"synth", trace_path, "500", "23"}), kOk);
  ASSERT_EQ(run({"fit", trace_path, model_path}), kOk);

  std::string out;
  ASSERT_EQ(run({"generate", model_path, "2010-06-01", "100",
                 temp_path("cli_corr_chol.csv"), "--correlation=cholesky"},
                &out),
            kOk);
  EXPECT_NE(out.find("cholesky correlation"), std::string::npos);

  ASSERT_EQ(run({"generate", model_path, "2010-06-01", "100",
                 temp_path("cli_corr_ind.csv"),
                 "--correlation=independent"},
                &out),
            kOk);
  EXPECT_NE(out.find("independent correlation"), std::string::npos);

  ASSERT_EQ(run({"generate", model_path, "2010-06-01", "100",
                 temp_path("cli_corr_emp.csv"), "--correlation=empirical",
                 "--trace=" + trace_path},
                &out),
            kOk);
  EXPECT_NE(out.find("empirical correlation"), std::string::npos);

  // Extrapolation: the copula is fitted from the trace's own window even
  // when generating for a date years past its end.
  ASSERT_EQ(run({"generate", model_path, "2014-06-01", "100",
                 temp_path("cli_corr_emp_future.csv"),
                 "--correlation=empirical", "--trace=" + trace_path},
                &out),
            kOk);

  // Same flags work on validate, with an explicit out-of-sample fit source.
  ASSERT_EQ(run({"validate", model_path, trace_path, "2009-06-01",
                 "--correlation=empirical"},
                &out),
            kOk);
  EXPECT_NE(out.find("mu actual"), std::string::npos);
  ASSERT_EQ(run({"validate", model_path, trace_path, "2009-06-01",
                 "--correlation=empirical", "--trace=" + trace_path},
                &out),
            kOk);

  // --trace is rejected where it would be silently ignored.
  std::string err;
  EXPECT_EQ(run({"generate", model_path, "2010-06-01", "100",
                 temp_path("cli_corr_bad.csv"), "--correlation=cholesky",
                 "--trace=" + trace_path},
                nullptr, &err),
            kUsage);
  EXPECT_NE(err.find("--trace only applies"), std::string::npos);
  EXPECT_EQ(run({"validate", model_path, trace_path, "2009-06-01",
                 "--trace=" + trace_path},
                nullptr, &err),
            kUsage);
}

TEST(Cli, GenerateRejectsBadCorrelationFlag) {
  std::string err;
  EXPECT_EQ(run({"generate", "m.txt", "2010-06-01", "10", "h.csv",
                 "--correlation=copula"},
                nullptr, &err),
            kFailure);
  EXPECT_NE(err.find("bad --correlation"), std::string::npos);
  // An unknown flag is a usage error on every verb.
  EXPECT_EQ(run({"generate", "m.txt", "2010-06-01", "10", "h.csv",
                 "--frobnicate"},
                nullptr, &err),
            kUsage);
  EXPECT_NE(err.find("unknown flag"), std::string::npos);
}

TEST(Cli, GenerateEmpiricalNeedsTrace) {
  const std::string trace_path = temp_path("cli_emp.csv");
  const std::string model_path = temp_path("cli_emp_model.txt");
  ASSERT_EQ(run({"synth", trace_path, "500", "29"}), kOk);
  ASSERT_EQ(run({"fit", trace_path, model_path}), kOk);
  std::string err;
  EXPECT_EQ(run({"generate", model_path, "2010-06-01", "10",
                 temp_path("cli_emp_hosts.csv"), "--correlation=empirical"},
                nullptr, &err),
            kUsage);
  EXPECT_NE(err.find("--trace"), std::string::npos);
}

// --- pack / unpack / verify -------------------------------------------------

TEST(Cli, PackUnpackTraceRoundTripsWithMatchingDigests) {
  const std::string csv = temp_path("cli_pack_trace.csv");
  const std::string snap = temp_path("cli_pack_trace.snap");
  const std::string back = temp_path("cli_pack_trace_back.csv");
  ASSERT_EQ(run({"synth", csv, "400", "11"}), kOk);

  std::string pack_out;
  ASSERT_EQ(run({"pack", csv, snap, "--shard=97"}, &pack_out), kOk);
  EXPECT_NE(pack_out.find("column digests:"), std::string::npos);

  std::string verify_out;
  ASSERT_EQ(run({"verify", snap, "--digests"}, &verify_out), kOk);
  EXPECT_NE(verify_out.find("verify: OK"), std::string::npos);
  EXPECT_NE(verify_out.find("kind: trace.v1"), std::string::npos);

  std::string unpack_out;
  ASSERT_EQ(run({"unpack", snap, back}, &unpack_out), kOk);
  // pack and unpack print identical digest blocks — the bit-identity
  // proof scripts diff.
  const auto digest_block = [](const std::string& text) {
    return text.substr(text.find("column digests:"));
  };
  const std::string pack_digests = digest_block(pack_out);
  EXPECT_EQ(pack_digests.substr(0, pack_digests.find("unpacked")),
            digest_block(unpack_out).substr(
                0, digest_block(unpack_out).find("unpacked")));

  // And the CSV itself round-trips byte-for-byte.
  EXPECT_EQ(read_file(back), read_file(csv));
}

TEST(Cli, PackGenerateThenDigestOnlyUnpack) {
  const std::string trace_path = temp_path("cli_packgen_trace.csv");
  const std::string model_path = temp_path("cli_packgen_model.txt");
  const std::string snap = temp_path("cli_packgen.snap");
  ASSERT_EQ(run({"synth", trace_path, "500", "13"}), kOk);
  ASSERT_EQ(run({"fit", trace_path, model_path}), kOk);

  std::string pack_out;
  ASSERT_EQ(run({"pack", "--generate", model_path, "2009-06-01", "5000", snap,
                 "--shard=1024", "--seed=21"},
                &pack_out),
            kOk);
  EXPECT_NE(pack_out.find("5000 generated hosts in 5 shard(s)"),
            std::string::npos);

  std::string unpack_out;
  ASSERT_EQ(run({"unpack", snap, "--digest-only"}, &unpack_out), kOk);
  EXPECT_NE(unpack_out.find("kind: population.v1"), std::string::npos);
  const std::string pack_digests =
      pack_out.substr(pack_out.find("column digests:"));
  EXPECT_NE(unpack_out.find(pack_digests), std::string::npos);

  // Same invocation -> bit-identical file -> identical digest lines.
  std::string again;
  ASSERT_EQ(run({"pack", "--generate", model_path, "2009-06-01", "5000", snap,
                 "--shard=1024", "--seed=21"},
                &again),
            kOk);
  EXPECT_EQ(again.substr(again.find("column digests:")), pack_digests);
}

TEST(Cli, UnpackPopulationCsvRePacksIdentically) {
  const std::string trace_path = temp_path("cli_popcsv_trace.csv");
  const std::string model_path = temp_path("cli_popcsv_model.txt");
  const std::string snap1 = temp_path("cli_popcsv_1.snap");
  const std::string csv = temp_path("cli_popcsv.csv");
  const std::string snap2 = temp_path("cli_popcsv_2.snap");
  ASSERT_EQ(run({"synth", trace_path, "500", "17"}), kOk);
  ASSERT_EQ(run({"fit", trace_path, model_path}), kOk);
  std::string first;
  ASSERT_EQ(run({"pack", "--generate", model_path, "2010-01-01", "2000", snap1,
                 "--shard=512"},
                &first),
            kOk);
  ASSERT_EQ(run({"unpack", snap1, csv}), kOk);
  // Text CSV -> snapshot again: doubles survive because the population
  // CSV prints them at round-trip precision.
  std::string second;
  ASSERT_EQ(run({"pack", csv, snap2, "--shard=512"}, &second), kOk);
  EXPECT_EQ(first.substr(first.find("column digests:")),
            second.substr(second.find("column digests:")));
}

TEST(Cli, VerifyReportsDamageAndExitsNonzero) {
  const std::string csv = temp_path("cli_damage.csv");
  const std::string snap = temp_path("cli_damage.snap");
  ASSERT_EQ(run({"synth", csv, "300", "19"}), kOk);
  ASSERT_EQ(run({"pack", csv, snap, "--shard=64"}), kOk);
  // Flip one byte inside the block region (past the ~100-byte header).
  {
    std::fstream f(snap, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(600);
    char b;
    f.seekg(600);
    f.get(b);
    f.seekp(600);
    f.put(static_cast<char>(b ^ 0x40));
  }
  std::string out, err;
  EXPECT_EQ(run({"verify", snap}, &out, &err), kFailure);
  EXPECT_NE(out.find("lost block:"), std::string::npos);
  EXPECT_NE(err.find("verify: DAMAGED"), std::string::npos);

  // Strict unpack refuses; --recover loads the rest and reports.
  std::string serr;
  EXPECT_EQ(run({"unpack", snap, temp_path("cli_damage_strict.csv")}, nullptr,
                &serr),
            kFailure);
  EXPECT_NE(serr.find("store["), std::string::npos);
  std::string rout;
  EXPECT_EQ(run({"unpack", snap, temp_path("cli_damage_rec.csv"),
                 "--recover"},
                &rout),
            kFailure);
  EXPECT_NE(rout.find("lost block:"), std::string::npos);
}

TEST(Cli, StoreCommandsReportMissingAndMalformedInputsTyped) {
  std::string err;
  // Missing snapshot: typed cannot-open naming the path, exit 2.
  EXPECT_EQ(run({"verify", "/nonexistent/f.snap"}, nullptr, &err), kFailure);
  EXPECT_NE(err.find("cannot-open"), std::string::npos);
  EXPECT_NE(err.find("/nonexistent/f.snap"), std::string::npos);

  EXPECT_EQ(run({"unpack", "/nonexistent/f.snap"}, nullptr, &err), kFailure);

  // Missing csv input to pack.
  EXPECT_EQ(run({"pack", "/nonexistent/f.csv", temp_path("x.snap")}, nullptr,
                &err),
            kFailure);
  EXPECT_NE(err.find("/nonexistent/f.csv"), std::string::npos);

  // A csv that is neither trace nor population.
  const std::string weird = temp_path("cli_weird.csv");
  std::ofstream(weird) << "alpha,beta\n1,2\n";
  EXPECT_EQ(run({"pack", weird, temp_path("y.snap")}, nullptr, &err),
            kFailure);
  EXPECT_NE(err.find("neither a trace nor a population"), std::string::npos);

  // A trace csv with a corrupt row: CsvError with file:line reaches the
  // user and exits nonzero.
  const std::string corrupt = temp_path("cli_corrupt.csv");
  ASSERT_EQ(run({"synth", corrupt, "300", "23"}), kOk);
  {
    std::ofstream f(corrupt, std::ios::app);
    f << "1,2,3\n";
  }
  EXPECT_EQ(run({"pack", corrupt, temp_path("z.snap")}, nullptr, &err),
            kFailure);
  EXPECT_NE(err.find(corrupt + ":"), std::string::npos);
  EXPECT_NE(err.find("field count"), std::string::npos);

  // Usage errors for the new verbs.
  EXPECT_EQ(run({"pack"}, nullptr, &err), kUsage);
  EXPECT_EQ(run({"unpack"}, nullptr, &err), kUsage);
  EXPECT_EQ(run({"verify"}, nullptr, &err), kUsage);
  EXPECT_EQ(run({"verify", "a", "--frobnicate"}, nullptr, &err), kUsage);
}

// Drops the wall-clock "timing:" line, leaving serve's deterministic
// counter block — the same stripping the CI determinism gate applies.
std::string without_timing(const std::string& text) {
  std::istringstream in(text);
  std::string kept, line;
  while (std::getline(in, line)) {
    if (line.rfind("timing:", 0) == 0) continue;
    kept += line;
    kept += '\n';
  }
  return kept;
}

TEST(Cli, ServeRunsCohortAndReportsBalancedCounters) {
  std::string out;
  ASSERT_EQ(run({"serve", "--clients=400", "--days=5", "--shards=2",
                 "--seed=9"},
                &out),
            kOk);
  EXPECT_NE(out.find("serve: 400 clients"), std::string::npos);
  EXPECT_NE(out.find("contacts: "), std::string::npos);
  EXPECT_NE(out.find("unaccounted=0"), std::string::npos);
  EXPECT_NE(out.find("timing:"), std::string::npos);
  EXPECT_NE(out.find("requests/s"), std::string::npos);
}

TEST(Cli, ServeCountersAreShardInvariant) {
  std::string one, three;
  ASSERT_EQ(run({"serve", "--clients=300", "--days=4", "--shards=1",
                 "--seed=3", "--availability",
                 "--fault-mix=crash:0.2,corrupt:0.2"},
                &one),
            kOk);
  ASSERT_EQ(run({"serve", "--clients=300", "--days=4", "--shards=3",
                 "--seed=3", "--availability",
                 "--fault-mix=crash:0.2,corrupt:0.2"},
                &three),
            kOk);
  // Shard count appears in the banner; everything after it must match.
  const std::string a = without_timing(one);
  const std::string b = without_timing(three);
  EXPECT_EQ(a.substr(a.find('\n')), b.substr(b.find('\n')));
}

TEST(Cli, ServeReportsQuorumCounters) {
  std::string out;
  ASSERT_EQ(run({"serve", "--clients=200", "--days=6", "--shards=2",
                 "--replication=2/3", "--deadline-days=1.5",
                 "--fault-mix=corrupt:0.3"},
                &out),
            kOk);
  EXPECT_NE(out.find("quorum tasks: issued="), std::string::npos);
  EXPECT_NE(out.find("quorum replicas: issued="), std::string::npos);
}

TEST(Cli, ServeRejectsBadArgs) {
  std::string err;
  // Missing required arguments.
  EXPECT_EQ(run({"serve"}, nullptr, &err), kUsage);
  EXPECT_NE(err.find("--clients=N"), std::string::npos);
  EXPECT_EQ(run({"serve", "--clients=100"}, nullptr, &err), kUsage);
  EXPECT_EQ(run({"serve", "--days=7"}, nullptr, &err), kUsage);

  // Zero and negative counts are rejected everywhere a count is taken —
  // including the stoul-wraparound case ("-3" must not parse as huge).
  EXPECT_EQ(run({"serve", "--clients=0", "--days=7"}, nullptr, &err),
            kFailure);
  EXPECT_EQ(run({"serve", "--clients=-3", "--days=7"}, nullptr, &err),
            kFailure);
  EXPECT_EQ(run({"serve", "--clients=100", "--days=7", "--shards=0"},
                nullptr, &err),
            kFailure);
  EXPECT_NE(err.find("--shards"), std::string::npos);
  EXPECT_EQ(run({"serve", "--clients=100", "--days=7", "--shards=-1"},
                nullptr, &err),
            kFailure);
  EXPECT_EQ(run({"serve", "--clients=100", "--days=0"}, nullptr, &err),
            kFailure);
  EXPECT_EQ(run({"serve", "--clients=100", "--days=7", "--batch=0"},
                nullptr, &err),
            kFailure);

  // Policy flags that need each other or valid specs.
  EXPECT_EQ(run({"serve", "--clients=100", "--days=7", "--deadline-days=2"},
                nullptr, &err),
            kUsage);
  EXPECT_NE(err.find("--replication"), std::string::npos);
  EXPECT_EQ(run({"serve", "--clients=100", "--days=7", "--replication=5/2"},
                nullptr, &err),
            kUsage);
  EXPECT_EQ(run({"serve", "--clients=100", "--days=7",
                 "--fault-mix=crash:0.7,corrupt:0.7"},
                nullptr, &err),
            kFailure);
  // Crash faults only fire at session deaths.
  EXPECT_EQ(run({"serve", "--clients=100", "--days=7",
                 "--fault-mix=crash:0.1"},
                nullptr, &err),
            kUsage);
  EXPECT_NE(err.find("--availability"), std::string::npos);
  EXPECT_EQ(run({"serve", "--clients=100", "--days=7", "--frobnicate"},
                nullptr, &err),
            kUsage);
}

TEST(Cli, ServeResumeConflictsWithPopulationShapeFlags) {
  // --resume takes the whole run config from the checkpoint header;
  // every population-shape flag alongside it is a usage error that
  // names the offenders.
  std::string err;
  EXPECT_EQ(run({"serve", "--resume=x.snap", "--clients=100"}, nullptr,
                &err),
            kUsage);
  EXPECT_NE(err.find("--resume"), std::string::npos);
  EXPECT_NE(err.find("--clients"), std::string::npos);

  err.clear();
  EXPECT_EQ(run({"serve", "--resume=x.snap", "--days=7", "--seed=3",
                 "--fault-mix=crash:0.1"},
                nullptr, &err),
            kUsage);
  EXPECT_NE(err.find("--days"), std::string::npos);
  EXPECT_NE(err.find("--seed"), std::string::npos);
  EXPECT_NE(err.find("--fault-mix"), std::string::npos);

  err.clear();
  EXPECT_EQ(run({"serve", "--resume=x.snap", "--shards=4"}, nullptr, &err),
            kUsage);
  EXPECT_EQ(run({"serve", "--resume=x.snap", "--replication=2/3"}, nullptr,
                &err),
            kUsage);
  EXPECT_EQ(run({"serve", "--resume=x.snap", "--availability"}, nullptr,
                &err),
            kUsage);

  // --threads only sets the parallel grain — allowed with --resume (the
  // missing file is then a runtime failure, not a usage error).
  EXPECT_EQ(run({"serve", "--resume=" + temp_path("absent.snap"),
                 "--threads=2"},
                nullptr, &err),
            kFailure);
}

TEST(Cli, ServeCheckpointFlagValidation) {
  std::string err;
  EXPECT_EQ(run({"serve", "--clients=100", "--days=3",
                 "--checkpoint-every-days=2"},
                nullptr, &err),
            kUsage);
  EXPECT_NE(err.find("--checkpoint-every-days needs --checkpoint"),
            std::string::npos);
  EXPECT_EQ(run({"serve", "--clients=100", "--days=3", "--checkpoint="},
                nullptr, &err),
            kUsage);
  EXPECT_EQ(run({"serve", "--resume="}, nullptr, &err), kUsage);
  // A fault plan without a checkpoint to write is a config error.
  EXPECT_EQ(run({"serve", "--clients=100", "--days=3",
                 "--checkpoint-fault=eio@1"},
                nullptr, &err),
            kUsage);
  // Malformed fault specs.
  EXPECT_EQ(run({"serve", "--clients=100", "--days=3",
                 "--checkpoint=" + temp_path("cf.snap"),
                 "--checkpoint-fault=eio"},
                nullptr, &err),
            kFailure);
  EXPECT_EQ(run({"serve", "--clients=100", "--days=3",
                 "--checkpoint=" + temp_path("cf.snap"),
                 "--checkpoint-fault=frobnicate@1"},
                nullptr, &err),
            kFailure);
}

TEST(Cli, ServeCheckpointKillResumeRoundTrip) {
  const std::vector<std::string> shape = {
      "--clients=300",  "--days=8", "--shards=3", "--seed=17",
      "--availability", "--fault-mix=crash:0.1,straggler:0.1"};

  std::vector<std::string> full = {"serve"};
  full.insert(full.end(), shape.begin(), shape.end());
  std::string uninterrupted;
  ASSERT_EQ(run(full, &uninterrupted), kOk);

  const std::string ck = temp_path("cli_roundtrip.snap");
  std::vector<std::string> killed = full;
  killed.push_back("--checkpoint=" + ck);
  killed.push_back("--checkpoint-every-days=3");
  killed.push_back("--stop-after-day=4");
  std::string halted;
  ASSERT_EQ(run(killed, &halted), kOk);
  EXPECT_NE(halted.find("halted: after day 4"), std::string::npos);
  EXPECT_EQ(halted.find("contacts:"), std::string::npos);

  std::string resumed;
  ASSERT_EQ(run({"serve", "--resume=" + ck}, &resumed), kOk);
  // The resumed run's deterministic block is byte-identical to the
  // uninterrupted run's — banner (clients/days/shards) included.
  EXPECT_EQ(without_timing(resumed), without_timing(uninterrupted));
}

TEST(Cli, ServeCheckpointFaultKillsRunButKeepsPublishedEpoch) {
  const std::vector<std::string> shape = {"--clients=250", "--days=8",
                                          "--seed=5", "--replication=2/3",
                                          "--fault-mix=corrupt:0.2"};
  std::vector<std::string> full = {"serve"};
  full.insert(full.end(), shape.begin(), shape.end());
  std::string uninterrupted;
  ASSERT_EQ(run(full, &uninterrupted), kOk);

  const std::string ck = temp_path("cli_faulted.snap");
  std::vector<std::string> faulted = full;
  faulted.push_back("--checkpoint=" + ck);
  faulted.push_back("--checkpoint-every-days=2");
  faulted.push_back("--checkpoint-fault=crash-commit@2");
  std::string out, err;
  EXPECT_EQ(run(faulted, &out, &err), kFailure);
  EXPECT_NE(err.find("serve: store["), std::string::npos);

  // Epoch 1 survived the injected death of epoch 2's commit: resume from
  // it and land on the uninterrupted run's exact counters.
  std::string resumed;
  ASSERT_EQ(run({"serve", "--resume=" + ck}, &resumed), kOk);
  EXPECT_EQ(without_timing(resumed), without_timing(uninterrupted));
}

TEST(Cli, PackRejectsExplicitZeroShard) {
  const std::string trace_path = temp_path("cli_shard0.csv");
  ASSERT_EQ(run({"synth", trace_path, "200", "7"}), kOk);
  std::string err;
  EXPECT_EQ(run({"pack", trace_path, temp_path("cli_shard0.snap"),
                 "--shard=0"},
                nullptr, &err),
            kFailure);
  EXPECT_NE(err.find("--shard"), std::string::npos);
  EXPECT_EQ(run({"pack", trace_path, temp_path("cli_shard0.snap"),
                 "--shard=-5"},
                nullptr, &err),
            kFailure);
}

// --- one flag table per verb -----------------------------------------------

std::string paper_model(const std::string& name) {
  const std::string path = temp_path(name);
  std::ofstream(path) << core::paper_params().serialize();
  return path;
}

TEST(Cli, UsageListsEveryFlagAndTheParserKnowsEach) {
  // The flag contract, verb by verb: a flag left out of its verb's table
  // drops out of usage_text() and fails here.
  const std::map<std::string, std::set<std::string>> expected = {
      {"help", {}},
      {"synth", {}},
      {"collect", {}},
      {"fit", {}},
      {"generate", {"--correlation", "--trace"}},
      {"predict", {}},
      {"validate", {"--correlation", "--trace"}},
      {"sweep",
       {"--policies", "--threads", "--seed", "--availability", "--churn",
        "--interrupt", "--churn-levels", "--avail-coupling", "--backend",
        "--replication", "--deadline-days", "--backoff", "--retries",
        "--fault-mix"}},
      {"serve",
       {"--clients", "--days", "--shards", "--threads", "--seed", "--batch",
        "--mean-contact-days", "--availability", "--fault-mix",
        "--replication", "--deadline-days", "--checkpoint",
        "--checkpoint-every-days", "--resume", "--stop-after-day",
        "--checkpoint-fault"}},
      {"backends", {}},
      {"pack", {"--generate", "--shard", "--seed"}},
      {"unpack", {"--digest-only", "--recover"}},
      {"verify", {"--digests"}},
  };
  // A verb's lines open with "  resmodel <verb>", its flag lines with six
  // spaces and the flag as the usage spells it ("--threads=N").
  std::map<std::string, std::vector<std::string>> listed;
  std::map<std::string, std::set<std::string>> names;
  std::istringstream usage(usage_text());
  std::string verb;
  for (std::string line; std::getline(usage, line);) {
    if (line.starts_with("  resmodel ")) {
      verb = line.substr(11, line.find(' ', 11) - 11);
      names[verb];
    } else if (line.starts_with("      --")) {
      const std::string flag = line.substr(6, line.find(' ', 6) - 6);
      listed[verb].push_back(flag);
      names[verb].insert(flag.substr(0, flag.find('=')));
    }
  }
  EXPECT_EQ(names, expected);

  for (const auto& [name, flags] : names) {
    SCOPED_TRACE(name);
    std::string out;
    EXPECT_EQ(run({name, "--help"}, &out), kOk);
    EXPECT_EQ(out, usage_text());
    // Each flag as listed and without positionals: the verb may refuse
    // the placeholder value or the missing arguments, never the flag.
    for (const std::string& flag : listed[name]) {
      std::string err;
      run({name, flag}, nullptr, &err);
      EXPECT_EQ(err.find("unknown flag"), std::string::npos)
          << flag << ": " << err;
    }
  }
}

TEST(Cli, RefusesFlagsTheRunWouldIgnore) {
  const std::string csv = temp_path("cli_ignored.csv");
  const std::string snap = temp_path("cli_ignored.snap");
  ASSERT_EQ(run({"synth", csv, "200", "7"}), kOk);
  std::string err;
  // --seed only seeds --generate's synthesis.
  EXPECT_EQ(run({"pack", csv, snap, "--seed=5"}, nullptr, &err), kUsage);
  EXPECT_NE(err.find("pack: --seed needs --generate"), std::string::npos)
      << err;
  // --digest-only returns before anything is loaded or recovered.
  ASSERT_EQ(run({"pack", csv, snap}), kOk);
  EXPECT_EQ(run({"unpack", snap, "--digest-only", "--recover"}, nullptr,
                &err),
            kUsage);
  EXPECT_NE(err.find("--recover conflicts with --digest-only"),
            std::string::npos)
      << err;
}

TEST(Cli, RejectsNumbersOutOfTheirRange) {
  const std::string model = paper_model("cli_range_model.txt");
  const std::vector<std::string> serve = {"serve", "--clients=1000",
                                          "--days=3"};
  const std::vector<std::string> sweep = {
      "sweep", model, "2010-06-01", "100", "50", "--policies=ect"};
  struct Case {
    std::vector<std::string> args;
    std::vector<std::string> flags;
    std::string name;  ///< what the error must name
  };
  for (const auto& [args, flags, name] : std::vector<Case>{
           {serve, {"--stop-after-day=4294967296"}, "--stop-after-day"},
           {serve, {"--shards=99999999999"}, "--shards"},
           {serve, {"--batch=4294967296"}, "--batch"},
           {serve,
            {"--checkpoint=" + temp_path("cli_range.snap"),
             "--checkpoint-every-days=4294967296"},
            "--checkpoint-every-days"},
           {sweep, {"--threads=4294967297"}, "--threads"},
           {sweep, {"--deadline-days=4", "--retries=4294967296"}, "--retries"},
           {sweep, {"--replication=4294967298/4294967299"}, "--replication"},
           // An infinite deadline is no deadline: nothing to re-issue on.
           {sweep, {"--deadline-days=inf", "--retries=3"}, "--deadline-days"},
           {{"predict", model, "2014xyz"}, {}, "year"},
       }) {
    std::vector<std::string> invocation = args;
    invocation.insert(invocation.end(), flags.begin(), flags.end());
    std::string err;
    EXPECT_EQ(run(invocation, nullptr, &err), kFailure) << name;
    EXPECT_NE(err.find("bad " + name), std::string::npos) << err;
  }
}

TEST(Cli, SweepAvailCouplingFeedsReplicatedRuns) {
  // A replicated run draws the coupled availability timeline for its
  // crash model, so the coupling needs neither --availability nor churn.
  const std::string model = paper_model("cli_coupled_repl_model.txt");
  std::string out;
  ASSERT_EQ(run({"sweep", model, "2010-06-01", "300", "400", "--policies=ect",
                 "--replication=2/3", "--deadline-days=4",
                 "--fault-mix=crash:0.2", "--avail-coupling=-0.8"},
                &out),
            kOk);
  EXPECT_NE(out.find("speed-coupled availability, rho=-0.80"),
            std::string::npos);
  EXPECT_NE(out.find("replication outcomes (2-of-3 quorum"),
            std::string::npos);
}

}  // namespace
}  // namespace resmodel::cli
