// Ground-truth population generation — the stand-in for the SETI@home
// trace. See population_config.h for the modelling choices.
#pragma once

#include "core/host_generator.h"
#include "synth/population_config.h"
#include "trace/trace_store.h"
#include "util/rng.h"

namespace resmodel::synth {

/// Generates the full synthetic trace for the configured window.
/// Deterministic for a fixed config (including seed).
trace::TraceStore generate_population(const PopulationConfig& config);

/// Samples a Poisson variate (Knuth's method for small means, normal
/// approximation above 30). Exposed for tests.
std::uint64_t sample_poisson(util::Rng& rng, double mean);

/// The date hardware is sampled at for hosts created at `created`
/// (creation + lead; see population_config.h).
util::ModelDate effective_hardware_date(const PopulationConfig& config,
                                        util::ModelDate created) noexcept;

/// Wraps pre-generated hardware `hw` into a full HostRecord: lifetime,
/// measurement noise, odd cores, off-grid memory, categorical attributes,
/// GPU, corruption. `hw` must come from the config's model at
/// effective_hardware_date(config, created) — this is the path the
/// batched population loop and the BOINC arrival loop share.
trace::HostRecord finish_host(const PopulationConfig& config,
                              const core::GeneratedHost& hw,
                              util::ModelDate created, std::uint64_t id,
                              util::Rng& rng);

/// The date-dependent Weibull lifetime scale lambda(t).
double lifetime_lambda(const PopulationConfig& config, double t) noexcept;

}  // namespace resmodel::synth
