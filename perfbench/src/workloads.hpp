// The three workloads. Each runs its set-up, measures for args.seconds,
// checks every output it received, and fills in an Outcome. `ledger` is
// null in untraced runs.
#pragma once

#include "ledger.hpp"
#include "support.hpp"

namespace perfbench {

Outcome run_serve_mixed(const Args& args, Ledger* ledger);
Outcome run_serve_burst(const Args& args, Ledger* ledger);
Outcome run_solve_large(const Args& args, Ledger* ledger);

}  // namespace perfbench
