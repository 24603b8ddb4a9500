// Prometheus text-format exposition of the metrics Registry.
//
// prometheus_text() renders every registered instrument in the Prometheus
// text exposition format (version 0.0.4): counters and gauges as single
// samples, histograms as cumulative le-buckets plus _sum/_count (and a
// non-standard <name>_overflow counter for the implicit overflow bucket,
// since a scraper cannot recover it from le="+Inf" alone). Metric names
// are sanitized to the [a-zA-Z0-9_:] alphabet with a "tspopt_" prefix;
// label values are escaped per the spec (backslash, quote, newline). A
// tspopt_run_info{id=...,git=...} series carries the process run id so
// scrapes cross-correlate with the JSONL log and the run report.
//
// The one reader is tspoptd's admin plane, which serves the exposition
// live at GET /metrics (serve/admin.cpp).
#pragma once

#include <string>

namespace tspopt::obs {

class Registry;

std::string prometheus_text(const Registry& registry);

}  // namespace tspopt::obs
