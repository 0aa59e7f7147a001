// The three workloads. Each sets the program up, measures for
// args.seconds, checks every output it got, and returns the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run).
#pragma once
#include "harness.hpp"

namespace vpb {

RunOutput run_walk_fix(const Args& args);
RunOutput run_venue_load(const Args& args);
RunOutput run_venue_arrivals(const Args& args);

/// Median error bounds checked on every run, from the paper's ~2.5 m
/// median (Fig. 19): twice that where the venue is ingested with its
/// search bounds, four times that where it is loaded from the saved
/// database, which does not keep them (the solver then searches the
/// default 200 m box).
inline constexpr double kErrorBoundM = 5.0;
inline constexpr double kLoadedErrorBoundM = 10.0;

/// Set-ups per run of the loaded-database workloads; setup_s is their
/// median. A load takes about half a second and varies by a third.
inline constexpr int kSetupReps = 7;

/// The traced run measures one untraced phase, then one traced phase of
/// the same length; the tracing overhead compares their latency medians.
double overhead_pct(double untraced, double traced);

}  // namespace vpb
