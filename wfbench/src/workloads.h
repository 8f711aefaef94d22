#pragma once

// The three workloads. Each builds its seeded fixture, drives a separate
// wfqd over loopback, checks the answers, and fills the report; with
// Options::trace it then replays the same inputs in-process through each
// layer's public functions for the per-layer metrics.

#include "common.h"

namespace wfbench {

int run_adhoc(const Options& opt, Report& report, Tally& tally);
int run_monitor(const Options& opt, Report& report, Tally& tally);
int run_backfill(const Options& opt, Report& report, Tally& tally);

}  // namespace wfbench
