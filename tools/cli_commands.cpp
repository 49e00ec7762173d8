#include "cli_commands.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "backend/backend.h"
#include "boinc/simulation.h"
#include "churn/block_envelope.h"
#include "core/fit_pipeline.h"
#include "core/host_generator.h"
#include "core/prediction.h"
#include "core/validation.h"
#include "engine/checkpoint.h"
#include "engine/service_engine.h"
#include "model/factory.h"
#include "sim/bag_of_tasks.h"
#include "sim/baseline_models.h"
#include "store/adapters.h"
#include "store/snapshot.h"
#include "synth/population.h"
#include "trace/csv_io.h"
#include "util/checksum.h"
#include "util/csv.h"
#include "util/table.h"

namespace resmodel::cli {

namespace {

// --- Verb declarations -------------------------------------------------------

/// The invocation has the wrong shape (unknown flag, broken flag relation,
/// positionals that fit no form): kUsage. A bad value is a
/// std::invalid_argument instead: kFailure.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

using Args = std::vector<std::string>;
/// Stores a flag's value; throws std::invalid_argument with the reason a
/// value is bad ("expected ...").
using Apply = std::function<void(const std::string&)>;

/// One flag: `--name=VALUE`, or a switch when `value` is empty.
struct Flag {
  std::string name;   ///< "--threads"
  std::string value;  ///< usage placeholder ("N", "k/n"); empty: a switch
  std::string help;   ///< one short usage line; may be empty
  Apply apply;
  std::string needs = {};     ///< a flag that must also be given
  std::string excludes = {};  ///< a flag that must not also be given
};

/// One verb, declared once: parse_args, the usage errors, usage_text()
/// and run_cli's dispatch all read it. The flags store into state that
/// `run` owns.
struct Verb {
  std::string name;
  /// One synopsis per form: <required> and [optional] positionals and the
  /// --flag=V tokens the form requires. A form opening with a flag applies
  /// when that flag is given, the first form otherwise.
  std::vector<std::string> forms;
  std::string note;  ///< what the verb does, one short line
  std::vector<Flag> flags;
  std::function<int(const Args& positional, std::ostream& out)> run;
};

std::string spelled(const Flag& flag) {
  return flag.value.empty() ? flag.name : flag.name + '=' + flag.value;
}

/// Rethrows a std::invalid_argument from `parse(text)` as
/// "bad <what>: '<text>' (<reason>)", the form every bad value takes.
template <class Parse>
void parse_as(const std::string& what, const std::string& text,
              const Parse& parse) {
  try {
    parse(text);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("bad " + what + ": '" + text + "' (" +
                                e.what() + ")");
  }
}

/// Applies each `--name[=value]` in `args` through `verb`'s flags and
/// returns the positionals. Throws UsageError on an unknown flag, a value
/// on a switch or none on a flag, broken needs/excludes relations (naming
/// each) or positionals that do not fit the form that applies.
Args parse_args(const Verb& verb, const Args& args) {
  const auto find = [&](const std::string& name) {
    return std::ranges::find(verb.flags, name, &Flag::name);
  };
  Args positional;
  std::set<std::string> given;
  for (const std::string& arg : args) {
    if (!arg.starts_with("--")) {
      positional.push_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const auto flag = find(arg.substr(0, eq));
    if (flag == verb.flags.end()) {
      throw UsageError("unknown flag: '" + arg + "'");
    }
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (flag->value.empty() ? eq != std::string::npos : value.empty()) {
      throw UsageError("expected " + spelled(*flag));
    }
    parse_as(flag->name, value, flag->apply);
    given.insert(flag->name);
  }

  std::string broken;
  for (const Flag& f : verb.flags) {
    if (!given.contains(f.name)) continue;
    if (!f.needs.empty() && !given.contains(f.needs)) {
      broken += "; " + f.name + " needs " + spelled(*find(f.needs));
    }
    if (given.contains(f.excludes)) {
      broken += "; " + f.name + " conflicts with " + f.excludes;
    }
  }
  if (!broken.empty()) throw UsageError(broken.substr(2));

  const auto is_given = [&](const std::string& token) {
    return given.contains(token.substr(0, token.find_first_of("= ")));
  };
  std::string form = verb.forms.front();
  for (const std::string& f : verb.forms) {
    if (f.starts_with("--") && is_given(f)) form = f;
  }
  std::size_t required = 0;
  std::size_t optional = 0;
  bool fits = true;
  std::istringstream tokens(form);
  for (std::string token; tokens >> token;) {
    required += token.starts_with('<');
    optional += token.starts_with('[');
    fits = fits && (token.find_first_of("<[") == 0 || is_given(token));
  }
  if (!fits || positional.size() < required ||
      positional.size() > required + optional) {
    throw UsageError("expected " + (form.empty() ? "no arguments" : form));
  }
  return positional;
}

/// A verb's part of usage_text(): its forms, its note, then its flags,
/// each with its relations and help.
std::string usage_block(const Verb& verb) {
  std::string text;
  for (const std::string& form : verb.forms) {
    text += "  resmodel " + verb.name + (form.empty() ? "" : " ") + form + '\n';
  }
  text += "    " + verb.note + '\n';
  for (const Flag& flag : verb.flags) {
    text += "      " + spelled(flag);
    if (!flag.needs.empty()) text += "   (needs " + flag.needs + ")";
    if (!flag.excludes.empty()) text += "   (not with " + flag.excludes + ")";
    text += '\n';
    if (!flag.help.empty()) text += "          " + flag.help + '\n';
  }
  return text;
}

// --- Value parsers -----------------------------------------------------------

/// The largest value a T holds (+inf for a real).
template <class T>
constexpr T kMax = std::numeric_limits<T>::has_infinity
                       ? std::numeric_limits<T>::infinity()
                       : std::numeric_limits<T>::max();
/// The lower bound of "a positive number": x >= kPositive iff x > 0.
constexpr double kPositive = std::numeric_limits<double>::denorm_min();
/// The upper bound of a deadline: an infinite one is no deadline, which is
/// what leaving --deadline-days out already means.
constexpr double kFinite = std::numeric_limits<double>::max();

/// The one number parser: digits only for an integer `out` (a sign would
/// be wrapped or skipped), the whole text for a real, within [lo, hi].
/// `hi` defaults to the largest value `out` holds, so no value is clamped
/// or wrapped. Throws std::invalid_argument naming the range.
template <class T>
void parse_number(T& out, const std::string& text, std::type_identity_t<T> lo,
                  std::type_identity_t<T> hi = kMax<T>) {
  T v{};
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, v);
  const bool digits = !std::is_integral_v<T> ||
                      text.find_first_not_of("0123456789") == std::string::npos;
  if (digits && ec == std::errc{} && end == last && v >= lo && v <= hi) {
    out = v;
    return;
  }
  std::ostringstream range;
  if constexpr (std::is_integral_v<T>) {
    range << "an integer in " << lo << ".." << hi;
  } else if (lo == kPositive) {
    range << "a positive " << (hi < kMax<T> ? "finite " : "") << "number";
  } else {
    range << "a number in [" << lo << ", " << hi << "]";
  }
  throw std::invalid_argument("expected " + range.str());
}

// Applies for plain flags (and, via parse_as, numeric positionals); a
// flag's `field` lives in its verb's state, kept alive by the verb's run.
template <class T>
Apply into(T& field, std::type_identity_t<T> lo,
           std::type_identity_t<T> hi = kMax<T>) {
  return [&field, lo, hi](auto& v) { parse_number(field, v, lo, hi); };
}
Apply into(std::string& path) {
  return [&path](auto& v) { path = v; };
}
Apply switch_on(bool& field) {
  return [&field](auto&) { field = true; };
}

/// The entries of a comma-separated list (a trailing comma adds none).
Args split(const std::string& list) {
  Args entries;
  std::istringstream in(list);
  for (std::string entry; std::getline(in, entry, ',');) {
    entries.push_back(entry);
  }
  return entries;
}

struct NamedPolicy {
  std::string_view name;
  sim::SchedulingPolicy policy;
};
/// --policies names, in the default grid's order.
constexpr NamedPolicy kBasePolicies[] = {
    {"rr", sim::SchedulingPolicy::kStaticRoundRobin},
    {"sw", sim::SchedulingPolicy::kStaticSpeedWeighted},
    {"pull", sim::SchedulingPolicy::kDynamicPull},
    {"ect", sim::SchedulingPolicy::kDynamicEct},
};
/// --interrupt names; --churn alone adds all three.
constexpr NamedPolicy kChurnPolicies[] = {
    {"checkpoint", sim::SchedulingPolicy::kChurnEctCheckpoint},
    {"restart", sim::SchedulingPolicy::kChurnEctRestart},
    {"abandon", sim::SchedulingPolicy::kChurnEctAbandon},
};

std::string joined(std::span<const NamedPolicy> names, char sep) {
  std::string text;
  for (const NamedPolicy& n : names) {
    if (!text.empty()) text += sep;
    text += n.name;
  }
  return text;
}

/// The one name-list parser: "a,b,a" -> the named policies, order and
/// duplicates kept.
std::vector<sim::SchedulingPolicy> parse_names(
    const std::string& list, std::span<const NamedPolicy> names) {
  std::vector<sim::SchedulingPolicy> policies;
  for (const std::string& entry : split(list)) {
    const auto it = std::ranges::find(names, std::string_view(entry),
                                      &NamedPolicy::name);
    if (it == names.end()) {
      throw std::invalid_argument("expected " + joined(names, '|'));
    }
    policies.push_back(it->policy);
  }
  return policies;
}

/// A library name parser's result, or the reason naming what it takes.
template <class T>
T or_expected(const std::optional<T>& parsed, const std::string& names) {
  if (!parsed) throw std::invalid_argument("expected " + names);
  return *parsed;
}

/// "k/n" -> quorum k of n replicas (e.g. --replication=2/3).
void parse_replication(const std::string& spec, sim::ReplicationConfig& rep) {
  const std::size_t slash = spec.find('/');
  if (slash == std::string::npos) {
    throw std::invalid_argument("expected k/n, e.g. 2/3");
  }
  parse_number(rep.quorum, spec.substr(0, slash), 1);
  parse_number(rep.replicas, spec.substr(slash + 1), 1);
  rep.enabled = true;
}

/// "crash:0.05,straggler:0.03,corrupt:0.02" — any subset, any order.
sim::FaultMixConfig parse_fault_mix(const std::string& spec) {
  sim::FaultMixConfig mix;
  for (const std::string& entry : split(spec)) {
    const std::size_t colon = entry.find(':');
    const std::string kind = entry.substr(0, colon);
    double* fraction = kind == "crash"       ? &mix.crash_fraction
                       : kind == "straggler" ? &mix.straggler_fraction
                       : kind == "corrupt"   ? &mix.corrupter_fraction
                                             : nullptr;
    if (colon == std::string::npos || fraction == nullptr) {
      throw std::invalid_argument(
          "expected kind:fraction, kind in crash|straggler|corrupt");
    }
    parse_number(*fraction, entry.substr(colon + 1), kPositive);
  }
  mix.validate();
  return mix;
}

/// A --checkpoint-fault spec, KIND[:BYTE]@EPOCH. crash-commit is a kCrash
/// plan whose offset is never reached during appends, so the simulated
/// death fires at the rename — after the full tmp file was written,
/// before publication.
void parse_checkpoint_fault(const std::string& text,
                            engine::EngineConfig& config) {
  using Kind = store::FaultPlan::Kind;
  const std::size_t at = text.rfind('@');
  const std::size_t colon = text.find(':');
  const std::string kind = text.substr(0, std::min(at, colon));
  store::FaultPlan& plan = config.checkpoint_fault;
  const bool crash = kind == "crash-byte" || kind == "crash-commit";
  plan.kind = kind == "enospc" ? Kind::kNoSpace
              : kind == "eio"  ? Kind::kIoError
              : crash          ? Kind::kCrash
                               : Kind::kNone;
  if (at == std::string::npos || plan.kind == Kind::kNone) {
    throw std::invalid_argument("expected KIND[:BYTE]@EPOCH");
  }
  plan.at_byte = kind == "crash-commit" ? ~std::uint64_t{0} : 65536;
  if (colon < at) {
    parse_number(plan.at_byte, text.substr(colon + 1, at - colon - 1), 0);
  }
  parse_number(config.checkpoint_fault_epoch, text.substr(at + 1), 1);
}

// --- Model commands ----------------------------------------------------------

core::ModelParams load_model(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open model file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return core::ModelParams::deserialize(buffer.str());
}

void save_model(const core::ModelParams& params, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write model file: " + path);
  out << params.serialize();
}

/// The population CSV that generate and unpack write and pack reads: the
/// six GeneratedHostBatch columns, doubles at round-trip precision.
const std::vector<std::string> kPopulationCsvHeader = {
    "cores",          "memory_per_core_mb", "memory_mb",
    "whetstone_mips", "dhrystone_mips",     "disk_avail_gb"};

void write_population_csv(const core::GeneratedHostBatch& batch,
                          const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write population csv: " + path);
  util::CsvWriter writer(out);
  writer.write_row(kPopulationCsvHeader);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    writer.write_row({
        util::CsvWriter::field(static_cast<long long>(batch.n_cores[i])),
        util::CsvWriter::field(batch.memory_per_core_mb[i]),
        util::CsvWriter::field(batch.memory_mb[i]),
        util::CsvWriter::field(batch.whetstone_mips[i]),
        util::CsvWriter::field(batch.dhrystone_mips[i]),
        util::CsvWriter::field(batch.disk_avail_gb[i]),
    });
  }
}

/// synth's and collect's optional [active] [seed] positionals.
void parse_population_args(const Args& pos,
                           synth::PopulationConfig& population) {
  if (pos.size() > 1) {
    parse_as("active", pos[1], into(population.target_active_hosts, 1));
  }
  if (pos.size() > 2) parse_as("seed", pos[2], into(population.seed, 1));
}

int run_synth(const Args& pos, std::ostream& out) {
  synth::PopulationConfig config;
  config.target_active_hosts = 4000;
  parse_population_args(pos, config);
  const trace::TraceStore store = synth::generate_population(config);
  trace::write_csv_file(store, pos[0]);
  out << "wrote " << store.size() << " host records to " << pos[0] << '\n';
  return kOk;
}

int run_collect(const Args& pos, std::ostream& out) {
  boinc::CollectionConfig config;
  config.population.target_active_hosts = 1000;
  parse_population_args(pos, config.population);
  config.allocate_final_utility = true;
  const boinc::CollectionResult result = boinc::run_collection(config);
  trace::write_csv_file(result.trace, pos[0]);
  out << "collected " << result.trace.size() << " host records over "
      << result.total_contacts << " scheduler contacts; wrote " << pos[0]
      << '\n';
  const auto apps = sim::paper_applications();
  if (result.final_allocation_hosts > 0) {
    out << "final-day utility allocation over "
        << result.final_allocation_hosts << " hosts:";
    for (std::size_t a = 0; a < apps.size(); ++a) {
      out << ' ' << apps[a].name << '='
          << result.final_allocation.hosts_assigned[a];
    }
    out << '\n';
  }
  return kOk;
}

int run_fit(const Args& pos, std::ostream& out) {
  const trace::TraceStore store = trace::read_csv_file(pos[0]);
  const core::FitReport report = core::fit_model(store);
  save_model(report.params, pos[1]);
  out << "fitted " << report.fitted_hosts << " hosts ("
      << report.discarded_hosts << " discarded by the plausibility rules)\n"
      << "1:2 core ratio law: a = " << report.core_ratios[0].law.a
      << ", b = " << report.core_ratios[0].law.b << '\n'
      << "model written to " << pos[1] << '\n';
  return kOk;
}

/// generate's and validate's dependence-structure flags.
struct CorrelationArgs {
  model::CorrelationKind kind = model::CorrelationKind::kCholesky;
  std::string trace_path;  ///< --trace: the empirical copula's fit data
};

/// The generator for the chosen dependence structure. The empirical
/// copula is fitted from the --trace file (plausibility-filtered), else
/// from `fallback`, over snapshots spanning that trace's own window, so
/// generating for dates outside it — the extrapolation case — works.
core::HostGenerator make_generator(const core::ModelParams& params,
                                   const CorrelationArgs& c,
                                   const trace::TraceStore* fallback) {
  const bool empirical = c.kind == model::CorrelationKind::kEmpirical;
  if (!empirical && !c.trace_path.empty()) {
    throw UsageError("--trace only applies to --correlation=empirical");
  }
  if (empirical && c.trace_path.empty() && fallback == nullptr) {
    throw UsageError(
        "--correlation=empirical needs --trace=<trace.csv> to fit from");
  }
  trace::TraceStore loaded;
  if (!c.trace_path.empty()) {
    loaded = trace::read_csv_file(c.trace_path);
    loaded.discard_implausible();
    fallback = &loaded;
  }
  return core::HostGenerator(
      params, model::make_correlation_model(
                  c.kind, params.resource_correlation, fallback));
}

/// A verb with --correlation and --trace: generate and validate.
Verb correlation_verb(std::string name, std::string form, std::string note,
                      std::string trace_help,
                      int (*run)(const CorrelationArgs&, const Args&,
                                 std::ostream&)) {
  const auto c = std::make_shared<CorrelationArgs>();
  return {std::move(name),
          {std::move(form)},
          std::move(note),
          {{"--correlation", model::correlation_kind_names(), "",
            [c](auto& v) {
              c->kind = or_expected(model::parse_correlation_kind(v),
                                    model::correlation_kind_names());
            }},
           {"--trace", "<trace.csv>", std::move(trace_help),
            into(c->trace_path)}},
          [c, run](auto&... io) { return run(*c, io...); }};
}

int run_generate(const CorrelationArgs& c, const Args& pos,
                 std::ostream& out) {
  const core::ModelParams params = load_model(pos[0]);
  const util::ModelDate date = util::ModelDate::parse(pos[1]);
  std::size_t count = 0;
  parse_as("count", pos[2], into(count, 1));
  const core::HostGenerator generator = make_generator(params, c, nullptr);
  util::Rng rng(0x7e57ab1e);
  const core::GeneratedHostBatch hosts =
      generator.generate_batch(date, count, rng);
  write_population_csv(hosts, pos[3]);
  out << "generated " << hosts.size() << " hosts ("
      << generator.correlation().name() << " correlation) for "
      << date.to_string() << " -> " << pos[3] << '\n';
  return kOk;
}

int run_predict(const Args& pos, std::ostream& out) {
  const core::ModelParams params = load_model(pos[0]);
  double year = 0.0;
  parse_as("year", pos[1], into(year, -kMax<double>));
  const double t = year - 2006.0;

  util::Table table({"Quantity", "Prediction"});
  table.add_row({"Mean cores",
                 util::Table::num(core::predicted_mean_cores(params, t), 2)});
  table.add_row(
      {"Mean memory (GB)",
       util::Table::num(core::predicted_mean_memory_mb(params, t) / 1024.0,
                        2)});
  const auto dhry = core::predicted_dhrystone(params, t);
  const auto whet = core::predicted_whetstone(params, t);
  const auto disk = core::predicted_disk_gb(params, t);
  table.add_row({"Dhrystone MIPS (mean ± sd)",
                 util::Table::num(dhry.mean, 0) + " ± " +
                     util::Table::num(dhry.stddev, 0)});
  table.add_row({"Whetstone MIPS (mean ± sd)",
                 util::Table::num(whet.mean, 0) + " ± " +
                     util::Table::num(whet.stddev, 0)});
  table.add_row({"Avail disk GB (mean ± sd)",
                 util::Table::num(disk.mean, 1) + " ± " +
                     util::Table::num(disk.stddev, 1)});
  const auto fractions = core::predicted_core_fractions(params, {t});
  for (std::size_t v = 0; v < params.cores.values.size(); ++v) {
    table.add_row(
        {std::to_string(static_cast<int>(params.cores.values[v])) +
             "-core share",
         util::Table::pct(fractions[v][0])});
  }
  out << "Predicted composition for " << year << ":\n";
  table.print(out);
  return kOk;
}

int run_validate(const CorrelationArgs& c, const Args& pos,
                 std::ostream& out) {
  const core::ModelParams params = load_model(pos[0]);
  trace::TraceStore store = trace::read_csv_file(pos[1]);
  store.discard_implausible();
  const util::ModelDate date = util::ModelDate::parse(pos[2]);
  const trace::ResourceSnapshot actual = store.snapshot(date);
  if (actual.size() == 0) {
    throw std::runtime_error("no active hosts at " + date.to_string());
  }
  // The empirical copula refits from the trace being validated unless an
  // explicit --trace= gives a separate (out-of-sample) fit source.
  const core::HostGenerator generator = make_generator(params, c, &store);
  util::Rng rng(1);
  const core::GeneratedHostBatch generated =
      generator.generate_batch(date, actual.size(), rng);
  util::Table table(
      {"Resource", "mu actual", "mu gen", "mu diff", "sd diff", "KS"});
  for (const core::ResourceComparison& r :
       core::compare_resources(actual, generated)) {
    table.add_row({r.name, util::Table::num(r.mean_actual, 1),
                   util::Table::num(r.mean_generated, 1),
                   util::Table::pct(r.mean_diff_fraction),
                   util::Table::pct(r.stddev_diff_fraction),
                   util::Table::num(r.ks_statistic, 3)});
  }
  out << "Generated-vs-actual at " << date.to_string() << " ("
      << actual.size() << " hosts):\n";
  table.print(out);
  return kOk;
}

// --- sweep -------------------------------------------------------------------

struct SweepArgs {
  sim::PolicySweepConfig sweep;
  bool churn = false;              ///< append churn_policies to the grid
  std::vector<sim::SchedulingPolicy> churn_policies;
};

int run_sweep(SweepArgs& a, const Args& pos, std::ostream& out) {
  sim::PolicySweepConfig& sweep = a.sweep;
  const bool replicated = sweep.base.replicated_run();
  if (sweep.policies.empty()) {
    // Replication only composes with the dynamic-ECT family (static and
    // pull hand out work once and never watch deadlines); narrow the
    // default grid rather than erroring out of the default.
    sweep.policies =
        replicated ? std::vector{sim::SchedulingPolicy::kDynamicEct}
                   : parse_names(joined(kBasePolicies, ','), kBasePolicies);
  }
  if (a.churn) {
    sweep.policies.insert(sweep.policies.end(), a.churn_policies.begin(),
                          a.churn_policies.end());
  }
  if (sweep.base.availability_coupled && !sweep.draws_availability()) {
    // run_policy_sweep refuses it as well; this message names the flags.
    throw UsageError(
        "--avail-coupling needs --availability, --churn or a replicated "
        "run (nothing models availability otherwise)");
  }
  const core::ModelParams params = load_model(pos[0]);
  const util::ModelDate date = util::ModelDate::parse(pos[1]);
  std::size_t host_count = 0;
  parse_as("hosts", pos[2], into(host_count, 1));
  if (pos.size() > 3) {
    sweep.task_counts.clear();
    parse_as("tasks", pos[3], [&](const std::string& list) {
      for (const std::string& entry : split(list)) {
        parse_number(sweep.task_counts.emplace_back(), entry, 1);
      }
    });
  }

  // The host-model axis: the published Cholesky dependence structure vs
  // the same marginal laws sampled independently — the paper's argument
  // that scheduling conclusions hinge on the joint model, as a grid.
  const sim::CorrelatedModel correlated(params);
  const sim::CorrelatedModel independent(
      params,
      model::make_correlation_model(model::CorrelationKind::kIndependent,
                                    params.resource_correlation),
      "Independent Model");
  util::Rng synth_rng(0x5eed5eed);
  std::vector<sim::SweepPopulation> populations;
  populations.push_back(
      {"Correlated", correlated.synthesize_soa(date, host_count, synth_rng)});
  populations.push_back(
      {"Independent", independent.synthesize_soa(date, host_count, synth_rng)});

  const sim::PolicySweepResult grid = sim::run_policy_sweep(populations, sweep);

  out << "Policy sweep over " << host_count << " hosts at " << date.to_string()
      << (sweep.base.model_availability ? " (availability-derated)" : "")
      << (sweep.base.availability_coupled
              ? " (speed-coupled availability, rho=" +
                    util::Table::num(
                        sweep.base.availability_coupling.speed_rho, 2) +
                    ")"
              : "")
      << ", makespan in days:\n";
  double wasted_cpu = 0.0;
  std::uint64_t interruptions = 0;
  for (std::size_t t = 0; t < sweep.task_counts.size(); ++t) {
    std::vector<std::string> header = {
        std::to_string(sweep.task_counts[t]) + " tasks"};
    for (const sim::SchedulingPolicy policy : sweep.policies) {
      header.push_back(to_string(policy));
    }
    util::Table table(std::move(header));
    for (std::size_t p = 0; p < populations.size(); ++p) {
      std::vector<std::string> cells = {populations[p].name};
      for (std::size_t pol = 0; pol < sweep.policies.size(); ++pol) {
        const sim::BagOfTasksResult& cell = grid.at(p, pol, t).result;
        cells.push_back(util::Table::num(cell.makespan_days, 1));
        wasted_cpu += cell.wasted_cpu_days;
        interruptions += cell.interruptions;
      }
      table.add_row(std::move(cells));
    }
    table.print(out);
  }
  if (a.churn) {
    out << "churn cells: " << interruptions << " interruptions, "
        << util::Table::num(wasted_cpu, 1) << " CPU-days of burned attempts "
           "across the grid\n";
  }
  if (replicated) {
    const sim::ReplicationConfig& rep = sweep.base.replication;
    out << "replication outcomes (" << rep.quorum << "-of-" << rep.replicas
        << " quorum";
    if (rep.has_deadline()) {
      out << ", deadline " << util::Table::num(rep.deadline_days, 1)
          << "d, backoff x" << util::Table::num(rep.backoff, 1) << ", "
          << rep.max_retries << " retries";
    }
    out << "):\n";
    util::Table table({"Population", "Policy", "Tasks", "Issued", "Valid",
                       "Invalid", "Missed", "Reissues", "Wasted cpu-d",
                       "p50/p90/p99 reissue-d"});
    for (std::size_t p = 0; p < populations.size(); ++p) {
      for (std::size_t pol = 0; pol < sweep.policies.size(); ++pol) {
        for (std::size_t t = 0; t < sweep.task_counts.size(); ++t) {
          const sim::ReplicationOutcome& o =
              grid.at(p, pol, t).result.replication;
          table.add_row(
              {populations[p].name, to_string(sweep.policies[pol]),
               std::to_string(sweep.task_counts[t]),
               std::to_string(o.tasks_issued),
               std::to_string(o.tasks_validated),
               std::to_string(o.tasks_invalid),
               std::to_string(o.tasks_missed_deadline),
               std::to_string(o.reissues),
               util::Table::num(o.wasted_replica_cpu_days, 1),
               util::Table::num(o.reissue_latency_p50_days, 2) + "/" +
                   util::Table::num(o.reissue_latency_p90_days, 2) + "/" +
                   util::Table::num(o.reissue_latency_p99_days, 2)});
        }
      }
    }
    table.print(out);
  }
  return kOk;
}

Verb sweep_verb() {
  const auto a = std::make_shared<SweepArgs>();
  sim::BagOfTasksConfig& base = a->sweep.base;
  a->churn_policies = parse_names(joined(kChurnPolicies, ','), kChurnPolicies);
  a->sweep.task_counts = {10000};
  std::vector<Flag> flags = {
      {"--policies", joined(kBasePolicies, ','),
       "default: all four, or ect alone for a replicated run",
       [a](auto& v) { a->sweep.policies = parse_names(v, kBasePolicies); }},
      {"--threads", "N", "", into(a->sweep.threads, 1)},
      {"--seed", "N", "", into(a->sweep.workload_seed, 0)},
      {"--availability", "", "derate host rates by sampled availability",
       switch_on(base.model_availability)},
      {"--churn", "", "add the interval-walking churn ECT policies",
       switch_on(a->churn)},
      {"--interrupt", joined(kChurnPolicies, ','),
       "the churn policies to add (default: all); implies --churn",
       [a](auto& v) {
         a->churn_policies = parse_names(v, kChurnPolicies);
         a->churn = true;
       }},
      {"--churn-levels", "N",
       "churn ECT lookahead depth, 1.." +
           std::to_string(churn::kMaxLookaheadLevels) + "; implies --churn",
       [a](auto& v) {
         parse_number(a->sweep.base.churn_lookahead_levels, v, 1,
                      churn::kMaxLookaheadLevels);
         a->churn = true;
       }},
      {"--avail-coupling", "rho",
       "rank-couples availability to host speed, rho in [-1, 1]",
       [&base](auto& v) {
         parse_number(base.availability_coupling.speed_rho, v, -1.0, 1.0);
         base.availability_coupled = true;
       }},
      {"--backend", backend::backend_names(),
       "kernel arm for the dynamic policies (results are bit-identical)",
       [&base](auto& v) {
         base.backend = or_expected(backend::parse_backend(v),
                                    backend::backend_names());
       }},
      {"--replication", "k/n",
       "issue n replicas per task, validate on a k-of-n digest quorum",
       [&base](auto& v) { parse_replication(v, base.replication); }},
      {"--deadline-days", "D",
       "round r's re-issue window is D*B^r days (--backoff=B, --retries=N)",
       [&base](auto& v) {
         parse_number(base.replication.deadline_days, v, kPositive, kFinite);
         base.replication.enabled = true;
       }},
      {"--backoff", "B", "", into(base.replication.backoff, kPositive),
       "--deadline-days"},
      {"--retries", "N", "", into(base.replication.max_retries, 0),
       "--deadline-days"},
      {"--fault-mix", "crash:p,straggler:p,corrupt:p",
       "per-host fault injection fractions",
       [&base](auto& v) { base.fault_mix = parse_fault_mix(v); }},
  };
  return {"sweep",
          {"<model.txt> <YYYY-MM-DD> <hosts> [tasks[,tasks...]]"},
          "policy x host-model x task-count grid (10000 tasks by default)",
          std::move(flags),
          [a](auto&... io) { return run_sweep(*a, io...); }};
}

// --- serve -------------------------------------------------------------------

int run_serve(engine::EngineConfig& config, std::ostream& out) {
  if (config.collection.fault_mix.crash_fraction > 0.0 &&
      !config.collection.client.model_availability) {
    // CollectionConfig::validate() refuses it too, without flag names.
    throw UsageError(
        "--fault-mix=crash:p needs --availability (a crash loses work only "
        "when an ON session ends)");
  }
  // Surface config errors as usage problems before any work happens.
  try {
    config.validate();
    config.collection.validate();
  } catch (const std::invalid_argument& e) {
    throw UsageError(e.what());
  }

  // The provenance the deterministic header line prints: the config for
  // a fresh run, the checkpoint's run header for a resumed one (so both
  // print byte-identical blocks — the CI kill-and-resume gate diffs
  // them).
  double display_days = config.cohort_horizon_days;
  std::uint32_t display_shards = config.shards;
  bool with_replication = config.replication.enabled;
  if (!config.resume_path.empty()) {
    const engine::CheckpointMeta meta =
        engine::read_checkpoint_meta(config.resume_path);
    display_days = meta.cohort_horizon_days;
    display_shards = meta.display_shards;
    with_replication = meta.replication.enabled;
  }

  const engine::EngineResult result = engine::run_service_engine(config);

  if (result.halted) {
    // The deterministic stand-in for a mid-run kill: report where the
    // run stopped and what survives, nothing else — partial counters
    // are noise the resume leg will finish properly.
    out << "halted: after day " << config.stop_after_day << ", "
        << result.checkpoints_written << " checkpoint(s) written\n";
    return kOk;
  }

  // Everything except the final "timing:" line is deterministic for a
  // fixed config — CI diffs runs after stripping that one line.
  out << "serve: " << result.hosts_created << " clients, "
      << util::Table::num(display_days, 1) << " virtual days, "
      << display_shards << " shard(s)\n";
  out << "contacts: " << result.total_contacts << '\n';
  out << "units: granted=" << result.total_units_granted
      << " reported=" << result.total_units_reported
      << " invalid=" << result.total_invalid_result_units
      << " lost=" << result.total_units_lost
      << " expired=" << result.total_units_expired
      << " in_flight=" << result.units_in_flight
      << " unaccounted=" << result.units_unaccounted() << '\n';
  out << "credit: " << util::Table::num(result.total_credit_granted, 1)
      << '\n';
  if (with_replication) {
    const engine::QuorumOutcome& q = result.quorum;
    out << "quorum tasks: issued=" << q.tasks_issued
        << " validated=" << q.tasks_validated
        << " invalid=" << q.tasks_invalid
        << " missed=" << q.tasks_missed_deadline
        << " pending=" << q.tasks_pending << '\n';
    out << "quorum replicas: issued=" << q.replicas_issued
        << " correct=" << q.replicas_correct
        << " corrupt=" << q.replicas_corrupt
        << " crashed=" << q.replicas_crashed
        << " missed=" << q.replicas_missed_deadline
        << " duplicate=" << q.replicas_duplicate_host
        << " in_flight=" << q.replicas_in_flight << '\n';
    if (!q.conserves_tasks() || !q.conserves_replicas()) {
      throw std::runtime_error("quorum accounting does not balance");
    }
  }
  if (!result.conserves_units()) {
    throw std::runtime_error("unit accounting does not balance");
  }
  // Batch count rides with timing: it depends on the shard split, not on
  // the simulated outcome, so it stays out of the deterministic block.
  out << "timing: " << util::Table::num(result.wall_seconds, 3) << " s, "
      << util::Table::num(result.requests_per_second, 0) << " requests/s, "
      << result.batches_drained << " batch(es)\n";
  return kOk;
}

Verb serve_verb() {
  const auto c = std::make_shared<engine::EngineConfig>();
  engine::EngineConfig& config = *c;
  config.collection.client.mean_contact_interval_days = 2.0;
  // The run-shaping flags exclude --resume: a resumed run's configuration
  // comes from the checkpoint's run header.
  const std::string resume = "--resume";
  std::vector<Flag> flags = {
      {"--clients", "N", "", into(config.cohort_clients, 1), "", resume},
      {"--days", "D", "", into(config.cohort_horizon_days, kPositive), "",
       resume},
      {"--shards", "S", "", into(config.shards, 1), "", resume},
      {"--threads", "T", "0: one per hardware thread", into(config.threads, 0)},
      {"--seed", "N", "", into(config.collection.population.seed, 0), "",
       resume},
      {"--batch", "N", "", into(config.batch_size, 1), "", resume},
      {"--mean-contact-days", "D", "",
       into(config.collection.client.mean_contact_interval_days, kPositive),
       "", resume},
      {"--availability", "", "",
       switch_on(config.collection.client.model_availability), "", resume},
      {"--fault-mix", "crash:p,straggler:p,corrupt:p",
       "crash needs --availability: a crash fires when an ON session ends",
       [&config](auto& v) { config.collection.fault_mix = parse_fault_mix(v); },
       "", resume},
      {"--replication", "k/n", "",
       [&config](auto& v) { parse_replication(v, config.replication); }, "",
       resume},
      {"--deadline-days", "D", "",
       into(config.replication.deadline_days, kPositive, kFinite),
       "--replication", resume},
      {"--checkpoint", "PATH",
       "atomically publish the resumable engine state every D days",
       into(config.checkpoint_path)},
      {"--checkpoint-every-days", "D", "",
       into(config.checkpoint_every_days, 1), "--checkpoint"},
      {"--resume", "PATH",
       "continue a checkpointed run bit-identically, as its header says",
       into(config.resume_path)},
      {"--stop-after-day", "N",
       "halt cleanly after day N's barrier (a deterministic kill)",
       into(config.stop_after_day, 0)},
      {"--checkpoint-fault", "enospc|eio|crash-byte|crash-commit[:BYTE]@EPOCH",
       "fail the EPOCH'th checkpoint write; the last one published survives",
       [&config](auto& v) { parse_checkpoint_fault(v, config); },
       "--checkpoint"},
  };
  return {"serve",
          {"--clients=N --days=D", "--resume=PATH"},
          "sharded service engine; only the 'timing:' line varies across runs",
          std::move(flags),
          [c](const Args&, std::ostream& out) { return run_serve(*c, out); }};
}

// --- backends and the store commands -----------------------------------------

int run_backends(const Args&, std::ostream& out) {
  // cpu_feature_string reflects effective_cpu(), i.e. detection AFTER the
  // RESMODEL_SIMD mask — what dispatch actually sees, not raw CPUID.
  out << "cpu features: " << backend::cpu_feature_string()
      << " (RESMODEL_SIMD=off masks AVX2, native does not)\n";
  util::Table table({"Requested", "Resolves to"});
  for (const backend::Backend b :
       {backend::Backend::kAuto, backend::Backend::kScalar,
        backend::Backend::kBlocked, backend::Backend::kSimd}) {
    const backend::ResolvedBackend rb = backend::resolve(b);
    std::string resolved = backend::to_string(rb.arm);
    if (rb.arm == backend::Backend::kSimd) {
      resolved += " (" + backend::to_string(rb.simd) + ")";
    }
    table.add_row({backend::to_string(b), std::move(resolved)});
  }
  table.print(out);
  return kOk;
}

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

void print_digests(std::ostream& out,
                   const std::vector<store::ColumnSpec>& schema,
                   const std::vector<std::uint32_t>& digests,
                   const std::vector<bool>* intact = nullptr) {
  out << "column digests:\n";
  for (std::size_t i = 0; i < schema.size(); ++i) {
    out << "  " << schema[i].name << ' ';
    if (intact && !(*intact)[i]) {
      out << "LOST";
    } else {
      out << hex32(digests[i]);
    }
    out << '\n';
  }
}

core::GeneratedHostBatch read_population_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open population csv: " + path);
  util::CsvReader reader(in);
  util::CsvRow row;
  if (!reader.read_row(row) || row != kPopulationCsvHeader) {
    throw std::runtime_error("population csv " + path +
                             ":1: missing or wrong header");
  }
  core::GeneratedHostBatch batch;
  std::size_t line = 1;
  while (reader.read_row(row)) {
    ++line;
    if (row.size() != kPopulationCsvHeader.size()) {
      throw std::runtime_error("population csv " + path + ":" +
                               std::to_string(line) + ": wrong field count");
    }
    const auto field = [&](auto& column, std::size_t i, auto lo) {
      try {
        parse_as(kPopulationCsvHeader[i], row[i],
                 into(column.emplace_back(), lo));
      } catch (const std::invalid_argument& e) {
        throw std::runtime_error("population csv " + path + ":" +
                                 std::to_string(line) + ": " + e.what());
      }
    };
    field(batch.n_cores, 0, 0);
    field(batch.memory_per_core_mb, 1, -kMax<double>);
    field(batch.memory_mb, 2, -kMax<double>);
    field(batch.whetstone_mips, 3, -kMax<double>);
    field(batch.dhrystone_mips, 4, -kMax<double>);
    field(batch.disk_avail_gb, 5, -kMax<double>);
  }
  return batch;
}

core::GeneratedHostBatch population_slice(const core::GeneratedHostBatch& b,
                                          std::size_t at, std::size_t len) {
  core::GeneratedHostBatch s;
  const auto cut = [&](auto& dst, const auto& src) {
    dst.assign(src.begin() + static_cast<std::ptrdiff_t>(at),
               src.begin() + static_cast<std::ptrdiff_t>(at + len));
  };
  cut(s.n_cores, b.n_cores);
  cut(s.memory_per_core_mb, b.memory_per_core_mb);
  cut(s.memory_mb, b.memory_mb);
  cut(s.whetstone_mips, b.whetstone_mips);
  cut(s.dhrystone_mips, b.dhrystone_mips);
  cut(s.disk_avail_gb, b.disk_avail_gb);
  return s;
}

/// Per-shard generation seed: a SplitMix64 step over (seed, shard) so
/// `pack --generate` shards are independent deterministic streams — the
/// output file is a pure function of (model, date, count, seed, shard
/// size), regardless of thread count.
std::uint64_t shard_seed(std::uint64_t seed, std::uint64_t shard) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (shard + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Peeks the header row to tell a trace CSV from a population CSV.
enum class CsvKind { kTrace, kPopulation, kUnknown };
CsvKind detect_csv_kind(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open csv: " + path);
  util::CsvReader reader(in);
  util::CsvRow row;
  if (!reader.read_row(row)) return CsvKind::kUnknown;
  if (row == trace::csv_header()) return CsvKind::kTrace;
  if (row == kPopulationCsvHeader) return CsvKind::kPopulation;
  return CsvKind::kUnknown;
}

void print_read_report(std::ostream& out, const store::SnapshotReader& reader,
                       const store::ReadReport& report) {
  out << "blocks: " << report.blocks_loaded << '/' << report.blocks_expected
      << " intact, footer "
      << (report.footer_intact ? "intact" : "lost (forward scan used)")
      << '\n';
  for (const store::LostBlock& lost : report.lost) {
    const auto& schema = reader.schema();
    // Appended, not "#" + to_string(): GCC 12 reports a false -Wrestrict
    // on operator+(const char*, string&&).
    std::string name("#");
    name += std::to_string(lost.column);
    if (lost.column < schema.size()) name = schema[lost.column].name;
    out << "lost block: column " << name << ", shard " << lost.shard << " ("
        << lost.rows << " rows): " << to_string(lost.reason) << '\n';
  }
  if (report.rows_lost > 0) {
    out << "rows lost (block-level): " << report.rows_lost << '\n';
  }
  if (report.tail_bytes_unscanned > 0) {
    out << "tail bytes unscanned: " << report.tail_bytes_unscanned << '\n';
  }
}

struct PackArgs {
  bool generate = false;
  std::uint64_t shard = 0;  ///< rows per shard; 0: the default
  std::uint64_t seed = 0x7e57ab1e;
};

int run_pack(PackArgs& a, const Args& pos, std::ostream& out) {
  if (a.generate) {
    const core::ModelParams params = load_model(pos[0]);
    const util::ModelDate date = util::ModelDate::parse(pos[1]);
    std::uint64_t count = 0;
    parse_as("count", pos[2], into(count, 1));
    const std::string& out_path = pos[3];
    if (a.shard == 0) a.shard = 1u << 20;  // 1 Mi hosts/shard bounds RSS
    const core::HostGenerator generator(params);

    store::SnapshotWriter writer(out_path, store::kPopulationKind,
                                 store::population_schema());
    std::uint64_t written = 0;
    for (std::uint64_t s = 0; written < count; ++s) {
      const std::uint64_t n = std::min<std::uint64_t>(a.shard, count - written);
      const core::GeneratedHostBatch batch = generator.generate_batch_parallel(
          date, static_cast<std::size_t>(n), shard_seed(a.seed, s));
      store::append_population_shard(writer, batch);
      written += n;
    }
    writer.finish({{"source", "generated"},
                   {"model", pos[0]},
                   {"date", date.to_string()},
                   {"seed", std::to_string(a.seed)},
                   {"shard_rows", std::to_string(a.shard)}});
    out << "packed " << writer.rows_written() << " generated hosts in "
        << writer.shards_written() << " shard(s) -> " << out_path << '\n';
    print_digests(out, writer.schema(), writer.column_digests());
    return kOk;
  }

  const std::string& in_path = pos[0];
  const std::string& out_path = pos[1];
  const CsvKind kind = detect_csv_kind(in_path);
  if (kind == CsvKind::kUnknown) {
    throw std::runtime_error(in_path +
                             " is neither a trace nor a population csv "
                             "(unrecognized header)");
  }

  // Either csv packs `step` rows per shard, every row in one by default.
  const auto pack = [&](const char* what, const char* snapshot_kind,
                        const auto& schema, std::size_t rows,
                        const auto& append) {
    store::SnapshotWriter writer(out_path, snapshot_kind, schema);
    const std::size_t step = a.shard == 0 ? std::max<std::size_t>(1, rows)
                                          : a.shard;
    for (std::size_t at = 0; at < rows; at += step) {
      append(writer, at, std::min(step, rows - at));
    }
    writer.finish({{"source", in_path}});
    out << "packed " << writer.rows_written() << ' ' << what << " hosts in "
        << writer.shards_written() << " shard(s) -> " << out_path << '\n';
    print_digests(out, writer.schema(), writer.column_digests());
  };
  if (kind == CsvKind::kTrace) {
    const trace::TraceStore store = trace::read_csv_file(in_path);
    pack("trace", store::kTraceKind, store::trace_schema(), store.size(),
         [&](auto& writer, std::size_t at, std::size_t n) {
           store::append_trace_shard(writer, store.hosts().subspan(at, n));
         });
  } else {
    const core::GeneratedHostBatch batch = read_population_csv(in_path);
    pack("population", store::kPopulationKind, store::population_schema(),
         batch.size(), [&](auto& writer, std::size_t at, std::size_t n) {
           store::append_population_shard(writer,
                                          population_slice(batch, at, n));
         });
  }
  return kOk;
}

Verb pack_verb() {
  const auto a = std::make_shared<PackArgs>();
  return {"pack",
          {"<in.csv> <out.snap>",
           "--generate <model.txt> <YYYY-MM-DD> <count> <out.snap>"},
          "csv (trace or population) -> checksummed columnar snapshot",
          {
              {"--generate", "",
               "synthesize straight to the snapshot in bounded memory",
               switch_on(a->generate)},
              {"--shard", "N",
               "rows per shard (default: all; 1048576 generated)",
               into(a->shard, 1)},
              {"--seed", "N", "", into(a->seed, 0), "--generate"},
          },
          [a](auto&... io) { return run_pack(*a, io...); }};
}

struct UnpackArgs {
  bool digest_only = false;
  bool recover = false;
};

int run_unpack(const UnpackArgs& a, const Args& pos, std::ostream& out) {
  store::SnapshotReader reader(pos[0]);
  out << "kind: " << reader.kind() << '\n';

  if (a.digest_only) {
    // Checksum walk without materializing columns — the bounded-RSS
    // bit-identity check against pack's digest lines.
    const store::SnapshotReader::VerifyResult v = reader.verify();
    out << "rows: "
        << (reader.footer_intact() ? std::to_string(reader.rows())
                                   : std::string("unknown (footer lost)"))
        << '\n';
    print_read_report(out, reader, v.report);
    print_digests(out, reader.schema(), v.column_digests, &v.column_intact);
    return v.report.complete ? kOk : kFailure;
  }

  store::ReadReport report;
  const store::Snapshot snapshot =
      a.recover ? reader.read_recovering(report) : reader.read_all();
  if (a.recover) print_read_report(out, reader, report);
  out << "rows: " << snapshot.rows << '\n';

  // Digests over what was actually materialized (zero-filled holes
  // digest as zero-filled — the report above itemizes them).
  std::vector<std::uint32_t> digests(snapshot.columns.size(), 0);
  for (std::size_t i = 0; i < snapshot.columns.size(); ++i) {
    digests[i] = util::crc32c(snapshot.columns[i].data.data(),
                              snapshot.columns[i].data.size());
  }
  print_digests(out, reader.schema(), digests);

  if (pos.size() == 2) {
    const std::string& csv_path = pos[1];
    if (snapshot.kind == store::kTraceKind) {
      trace::write_csv_file(store::unpack_trace(snapshot), csv_path);
    } else if (snapshot.kind == store::kPopulationKind) {
      write_population_csv(store::unpack_population(snapshot), csv_path);
    } else {
      throw std::runtime_error("unknown snapshot kind '" + snapshot.kind +
                               "'");
    }
    out << "unpacked " << snapshot.rows << " rows -> " << csv_path << '\n';
  }
  return a.recover && !report.complete ? kFailure : kOk;
}

Verb unpack_verb() {
  const auto a = std::make_shared<UnpackArgs>();
  return {"unpack",
          {"<in.snap> [out.csv]", "--digest-only <in.snap>"},
          "snapshot -> digest lines and, given out.csv, the csv",
          {
              {"--digest-only", "",
               "checksum walk and digest lines only, no columns loaded",
               switch_on(a->digest_only)},
              {"--recover", "",
               "load what is intact, zero-fill and itemize damaged blocks",
               switch_on(a->recover), "", "--digest-only"},
          },
          [a](auto&... io) { return run_unpack(*a, io...); }};
}

int run_verify(bool digests, const Args& pos, std::ostream& out) {
  store::SnapshotReader reader(pos[0]);
  const store::SnapshotReader::VerifyResult v = reader.verify();
  out << "kind: " << reader.kind() << '\n';
  if (reader.footer_intact()) {
    out << "rows: " << reader.rows() << " in " << reader.shard_count()
        << " shard(s)\n";
  } else {
    out << "rows: unknown (footer lost)\n";
  }
  print_read_report(out, reader, v.report);
  if (digests) {
    print_digests(out, reader.schema(), v.column_digests, &v.column_intact);
  }
  if (v.report.complete) {
    out << "verify: OK\n";
    return kOk;
  }
  throw std::runtime_error("DAMAGED (" + std::to_string(v.report.lost.size()) +
                           " lost block(s), " +
                           std::to_string(v.report.rows_lost) + " rows lost)");
}

Verb verify_verb() {
  const auto digests = std::make_shared<bool>(false);
  return {"verify",
          {"<in.snap>"},
          "checksum walk: exit 0 = every block intact, else the damage",
          {{"--digests", "", "also print the column digest lines",
            switch_on(*digests)}},
          [digests](auto&... io) { return run_verify(*digests, io...); }};
}

/// Every verb, in usage order, each with fresh flag state.
std::vector<Verb> verbs() {
  return {
      {"synth", {"<out.csv> [active] [seed]"},
       "synthesize a ground-truth trace (4000 active hosts by default)", {},
       run_synth},
      {"collect", {"<out.csv> [active] [seed]"},
       "run the BOINC-style collection (1000 active hosts by default)", {},
       run_collect},
      {"fit", {"<trace.csv> <model.txt>"}, "fit the correlated model", {},
       run_fit},
      correlation_verb("generate", "<model.txt> <YYYY-MM-DD> <count> <out.csv>",
                       "synthesize hosts from the model",
                       "fit data for --correlation=empirical", run_generate),
      {"predict", {"<model.txt> <year>"},
       "the model's predicted host composition for a year", {}, run_predict},
      correlation_verb("validate", "<model.txt> <trace.csv> <YYYY-MM-DD>",
                       "compare generated hosts with the trace's active hosts",
                       "empirical fit source (default: the validated trace)",
                       run_validate),
      sweep_verb(),
      serve_verb(),
      {"backends", {""},
       "print CPU SIMD features and what each requested backend resolves to",
       {}, run_backends},
      pack_verb(),
      unpack_verb(),
      verify_verb(),
  };
}

}  // namespace

std::string usage_text() {
  std::string text =
      "resmodel — correlated Internet end-host resource models "
      "(ICDCS'11 reproduction)\n"
      "usage:\n"
      "  resmodel help | --help | <command> --help   print this text\n";
  for (const Verb& verb : verbs()) text += usage_block(verb);
  return text;
}

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  if (args.empty()) {
    err << usage_text();
    return kUsage;
  }
  const std::string& command = args.front();
  const Args rest(args.begin() + 1, args.end());
  const std::vector<Verb> all = verbs();
  const auto verb = std::ranges::find(all, command, &Verb::name);
  if (command == "help" || command == "--help" ||
      (verb != all.end() && std::ranges::count(rest, "--help") > 0)) {
    out << usage_text();
    return kOk;
  }
  if (verb == all.end()) {
    err << "unknown command '" << command << "'\n" << usage_text();
    return kUsage;
  }
  try {
    return verb->run(parse_args(*verb, rest), out);
  } catch (const UsageError& e) {
    err << command << ": " << e.what() << "\nusage:\n" << usage_block(*verb);
    return kUsage;
  } catch (const std::exception& e) {
    err << command << ": " << e.what() << '\n';
    return kFailure;
  }
}

}  // namespace resmodel::cli
