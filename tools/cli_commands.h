// The command layer of the resmodel CLI — the "tool for automated model
// generation" the paper published. Each command is a pure function over
// parsed arguments and an output stream so the whole surface is unit
// testable; main() only dispatches.
//
// usage_text() (`resmodel --help`) is the command list. It is generated
// from the one declaration each verb has in cli_commands.cpp: the verb's
// positional forms, a note and a table of its flags. The same table
// parses the flags, checks which flags need or exclude which, and names
// the flag in every error, so the usage text and the parser cannot
// disagree.
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
/// and problems to `err`. An unknown flag, a wrong positional count or a
/// broken flag relation is kUsage; a bad value ("bad --flag: ...") or a
/// failed run is kFailure.
int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);

/// The usage text: printed to stdout on request (help, --help, or
/// `<command> --help`), to stderr on a missing or unknown command.
std::string usage_text();

}  // namespace resmodel::cli
