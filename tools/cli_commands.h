// The command layer of the resmodel CLI — the "tool for automated model
// generation" the paper published. Each command is a pure function over
// parsed arguments and an output stream so the whole surface is unit
// testable; main() only dispatches.
//
// Commands:
//   help | --help | <command> --help       usage text on stdout, exit 0
//   synth <out.csv> [active] [seed]        generate a ground-truth trace
//   collect <out.csv> [active] [seed]      run the BOINC-style collection
//   fit <trace.csv> <model.txt>            fit the correlated model
//   generate <model.txt> <date> <n> <out.csv>   synthesize hosts
//   predict <model.txt> <year>             predicted composition
//   validate <model.txt> <trace.csv> <date>     generated-vs-actual check
//   sweep <model.txt> <date> <hosts> [tasks]    parallel policy sweep
//   serve --clients=N --days=D [...]       sharded virtual-time service
//                                          engine over an N-client cohort
//                                          (src/engine/); deterministic
//                                          counters + one timing line
//   backends                               CPU SIMD features + dispatch
//   pack <in.csv> <out.snap>               CSV -> columnar snapshot
//   pack --generate <model.txt> <date> <n> <out.snap>   synthesize direct
//                                          to a sharded snapshot (bounded
//                                          RSS at any population size)
//   unpack <in.snap> [out.csv]             snapshot -> CSV / digest check
//   verify <in.snap>                       checksum walk + damage report
//
// pack/unpack both print per-column CRC32C digest lines; diffing them is
// the bit-identity proof for a round trip (see src/store/README.md).
//
// sweep runs the bag-of-tasks policy x host-model x task-count grid
// (sim::run_policy_sweep) over populations synthesized from the fitted
// model under both the published (Cholesky) and an independence
// dependence structure — the scheduling-conclusions ablation as a CLI
// command. Its --backend= flag selects the kernel-dispatch arm
// (src/backend/); backends prints what the current CPU (and the
// RESMODEL_SIMD mask) lets each request resolve to.
//
// generate and validate accept --correlation=cholesky|independent|empirical
// to swap the dependence structure (src/model/); empirical generation also
// needs --trace=<trace.csv> to fit the rank copula from.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace resmodel::cli {

/// Exit codes: 0 success, 1 usage error, 2 runtime failure.
inline constexpr int kOk = 0;
inline constexpr int kUsage = 1;
inline constexpr int kFailure = 2;

/// Dispatches `args` (excluding argv[0]). Writes human output to `out`
/// and problems to `err`.
int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);

/// Individual commands (exposed for tests).
int cmd_synth(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err);
int cmd_collect(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err);
int cmd_fit(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);
int cmd_generate(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err);
int cmd_predict(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err);
int cmd_validate(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err);
int cmd_sweep(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err);
int cmd_serve(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err);
int cmd_backends(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err);
int cmd_pack(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err);
int cmd_unpack(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err);
int cmd_verify(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err);

/// The usage text: printed to stdout on request (help), to stderr on bad
/// invocations.
std::string usage_text();

}  // namespace resmodel::cli
