// Umbrella header for the observability layer: tracing (trace.hpp),
// metrics (metrics.hpp), histograms (histogram.hpp), the ambient-sink
// wiring (scope.hpp), structured logging (log.hpp), the shared JSON
// writer (json.hpp), and the embedded HTTP admin server
// (admin_server.hpp). Span/metric names follow
// `mev.<layer>.<op>` — DESIGN.md §9 lists the taxonomy and the
// telemetry endpoints.
#pragma once

#include "obs/admin_server.hpp"
#include "obs/histogram.hpp"
#include "obs/http.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "obs/trace.hpp"
