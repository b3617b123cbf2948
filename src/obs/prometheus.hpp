#pragma once
// Prometheus text exposition (src/obs/): renders a RegistrySnapshot as
// version 0.0.4 text format — the payload the --metrics-port endpoint
// serves and scripts/check_prometheus.py validates.

#include <string>

#include "obs/metrics.hpp"

namespace treesched::obs {

/// HELP/TYPE once per metric name, then one sample line per
/// (labels) series; histograms expand to cumulative _bucket{le=...}
/// series plus _sum and _count, with bounds scaled to the exposition
/// unit (seconds for latency). Nameless (stats-only) samples are
/// skipped.
std::string render_prometheus(const RegistrySnapshot& snap);

}  // namespace treesched::obs
