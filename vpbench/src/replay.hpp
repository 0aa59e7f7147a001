// Per-layer timing for the traced run. After the traced phase, recorded
// operations are replayed through each layer's public functions, called
// one at a time from here, so every layer's time is measured at its own
// boundary without instrumenting the program. The replay runs outside
// every end-to-end timing window.
#pragma once
#include <span>
#include <string>
#include <vector>

#include "harness.hpp"

namespace vpb {

/// Client frame path of one recorded frame: blur gate, SIFT pyramid /
/// extrema / descriptors (by subtraction of nested calls, the way their
/// public entry points nest), oracle scoring, top-k selection, PQ encoding
/// and query encoding.
void replay_client_frame(SpanRecorder& rec, std::uint64_t op,
                         const vp::ImageF& frame, vp::VisualPrintClient& phone,
                         std::span<const std::uint8_t> codebook);

/// Server query path of one recorded 'Q' request: decode, then either the
/// fan-out localize (place-less query) or retrieval, largest-cluster
/// filtering and the pose solve against the query's shard.
void replay_server_query(SpanRecorder& rec, std::uint64_t op,
                         const vp::Bytes& request,
                         const vp::VisualPrintServer& server,
                         std::uint64_t solver_seed);

/// The per-layer metrics of BENCHMARK.json, computed from a traced run's
/// spans. Layers a workload does not run report 0.
std::vector<Metric> per_layer_metrics(const SpanRecorder& rec);

}  // namespace vpb
