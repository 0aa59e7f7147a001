#include "replay.hpp"

#include <map>

#include "features/sift.hpp"
#include "geometry/clustering.hpp"
#include "geometry/localize.hpp"
#include "imaging/filters.hpp"
#include "net/wire.hpp"

namespace vpb {

void replay_client_frame(SpanRecorder& rec, std::uint64_t op,
                         const vp::ImageF& frame, vp::VisualPrintClient& phone,
                         std::span<const std::uint8_t> codebook) {
  const vp::SiftConfig& sift = phone.config().sift;
  rec.timed(op, "imaging.blur_gate", "core.client.process_frame",
            [&] { return vp::variance_of_laplacian(frame); });
  auto t0 = Clock::now();
  vp::detail::build_scale_space(frame, sift);
  const double pyramid = ms_between(t0, Clock::now());
  t0 = Clock::now();
  vp::sift_detect_keypoints(frame, sift);
  const double keypoints = ms_between(t0, Clock::now());
  t0 = Clock::now();
  std::vector<vp::Feature> features = vp::sift_detect(frame, sift);
  const double detect = ms_between(t0, Clock::now());
  const double at = ms_between(rec.epoch(), t0);
  rec.add({op, "features.sift.pyramid", "features.sift", at, pyramid, 0});
  rec.add({op, "features.sift.extrema", "features.sift", at,
           keypoints - pyramid, 0});
  rec.add({op, "features.sift.descriptor", "features.sift", at,
           detect - keypoints, 0});
  rec.count(op, "features.sift.keypoints",
            static_cast<double>(features.size()));

  std::vector<vp::Descriptor> descriptors;
  for (const auto& f : features) descriptors.push_back(f.descriptor);
  rec.timed(op, "hashing.oracle.score", "core.client.select",
            [&] { return phone.oracle()->count_batch(descriptors); });
  rec.count(op, "hashing.oracle.scored",
            static_cast<double>(descriptors.size()));

  vp::FingerprintQuery q;
  q.frame_id = static_cast<std::uint32_t>(op);
  q.capture_time = static_cast<double>(op);
  q.image_width = static_cast<std::uint16_t>(frame.width());
  q.image_height = static_cast<std::uint16_t>(frame.height());
  q.place = phone.oracle_place();
  q.oracle_epoch = phone.oracle_epoch();
  q.features = rec.timed(
      op, "core.client.select", "core.client.process_frame",
      [&] { return phone.select_features(features, phone.config().top_k); });
  if (codebook.size() == vp::kPqCodebookBytes) {
    const vp::PqCodebook book = vp::PqCodebook::from_raw(codebook);
    q.codes.resize(q.features.size() * vp::kPqCodeBytes);
    q.codebook_epoch = q.oracle_epoch;
    rec.timed(op, "features.pq.encode", "core.remote.localize", [&] {
      for (std::size_t i = 0; i < q.features.size(); ++i) {
        book.encode(q.features[i].descriptor.data(),
                    q.codes.data() + i * vp::kPqCodeBytes);
      }
    });
  }
  rec.timed(op, "net.wire.query_encode", "core.remote.localize",
            [&] { return q.encode(); });
}

void replay_server_query(SpanRecorder& rec, std::uint64_t op,
                         const vp::Bytes& request,
                         const vp::VisualPrintServer& server,
                         std::uint64_t solver_seed) {
  const auto body = std::span<const std::uint8_t>(request).subspan(1);
  const vp::FingerprintQuery q = rec.timed(
      op, "net.wire.query_decode", "core.server.handle",
      [&] { return vp::FingerprintQuery::decode(body); });
  vp::Rng rng(solver_seed ^ op);
  if (q.place.empty() && !q.compact()) {
    rec.timed(op, "core.map_store.fanout", "core.server.handle",
              [&] { return server.store().localize(q, rng); });
    return;
  }
  const auto shard = server.store().fault_in(q.place);
  if (shard == nullptr) return;
  const vp::ServerConfig& cfg = shard->config;

  std::vector<vp::Descriptor> qd(q.features.size());
  for (std::size_t i = 0; i < q.features.size(); ++i) {
    if (q.compact()) {
      shard->index.pq_codebook().reconstruct(
          q.codes.data() + i * vp::kPqCodeBytes, qd[i].data());
    } else {
      qd[i] = q.features[i].descriptor;
    }
  }
  const auto batch = rec.timed(op, "index.retrieve", "core.server.handle", [&] {
    return q.compact() && cfg.compact_symmetric
               ? shard->index.query_batch_codes(qd, q.codes,
                                                cfg.neighbors_per_keypoint)
               : shard->index.query_batch(qd, cfg.neighbors_per_keypoint);
  });
  std::vector<vp::Observation> candidates;
  std::vector<vp::Vec3> points;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    for (const auto& m : batch[i]) {
      if (m.distance2 > cfg.max_match_distance2) continue;
      const vp::Vec3 p = shard->stored[m.id].position;
      const auto& k = q.features[i].keypoint;
      candidates.push_back({{k.x, k.y}, p});
      points.push_back(p);
    }
  }
  rec.count(op, "index.candidates", static_cast<double>(candidates.size()));
  const auto keep =
      rec.timed(op, "geometry.cluster", "core.server.handle",
                [&] { return vp::largest_cluster(points, cfg.clustering); });
  rec.count(op, "geometry.cluster.kept", static_cast<double>(keep.size()));
  if (keep.size() < 3) return;
  std::vector<vp::Observation> obs;
  for (std::size_t i : keep) obs.push_back(candidates[i]);
  vp::CameraIntrinsics cam;
  cam.width = q.image_width;
  cam.height = q.image_height;
  cam.fov_h = static_cast<double>(q.fov_h);
  const auto result =
      rec.timed(op, "geometry.solve", "core.server.handle",
                [&] { return vp::localize(obs, cam, cfg.localize, rng); });
  if (!result) return;
  rec.count(op, "geometry.solve.residual", result->residual);
  rec.count(op, "geometry.solve.time_bound_hits",
            result->hit_time_bound ? 1 : 0);
}

namespace {

enum class Agg { kMedianMs, kMedianValue, kSumValue, kCountSpans, kLink };

struct LayerMetric {
  const char* name;  ///< as in BENCHMARK.json
  const char* unit;
  Agg agg;
  /// Span the metric is computed from; by default the name without its
  /// "_ms" suffix.
  const char* span = nullptr;
};

constexpr LayerMetric kLayers[] = {
    {"imaging.blur_gate_ms", "ms", Agg::kMedianMs},
    {"features.sift.pyramid_ms", "ms", Agg::kMedianMs},
    {"features.sift.extrema_ms", "ms", Agg::kMedianMs},
    {"features.sift.descriptor_ms", "ms", Agg::kMedianMs},
    {"features.sift.keypoints", "count", Agg::kMedianValue},
    {"hashing.oracle.score_ms", "ms", Agg::kMedianMs},
    {"hashing.oracle.scored", "count", Agg::kMedianValue},
    {"core.client.select_ms", "ms", Agg::kMedianMs},
    {"core.client.frame_ms", "ms", Agg::kMedianMs, "core.client.process_frame"},
    {"features.pq.encode_ms", "ms", Agg::kMedianMs},
    {"net.wire.query_encode_ms", "ms", Agg::kMedianMs},
    {"net.wire.query_bytes", "bytes", Agg::kMedianValue},
    {"net.tcp.link_ms", "ms", Agg::kLink},
    {"core.server.handle_ms", "ms", Agg::kMedianMs},
    {"net.wire.query_decode_ms", "ms", Agg::kMedianMs},
    {"index.retrieve_ms", "ms", Agg::kMedianMs},
    {"index.candidates", "count", Agg::kMedianValue},
    {"geometry.cluster_ms", "ms", Agg::kMedianMs},
    {"geometry.cluster.kept", "count", Agg::kMedianValue},
    {"geometry.solve_ms", "ms", Agg::kMedianMs},
    {"geometry.solve.residual", "rad2", Agg::kMedianValue},
    {"geometry.solve.time_bound_hits", "count", Agg::kSumValue},
    {"geometry.solve.solves", "count", Agg::kCountSpans, "geometry.solve"},
    {"core.map_store.fanout_ms", "ms", Agg::kMedianMs},
    {"core.server.shed", "count", Agg::kSumValue},
    {"net.retries", "count", Agg::kSumValue},
    {"core.map_store.oracle_snapshot_ms", "ms", Agg::kMedianMs},
    {"net.wire.oracle_bytes", "bytes", Agg::kMedianValue},
    {"core.client.oracle_install_ms", "ms", Agg::kMedianMs},
    {"core.map_store.publish_ms", "ms", Agg::kMedianMs},
    {"core.remote.stale_refreshes", "count", Agg::kSumValue},
    {"core.server.db_load_ms", "ms", Agg::kMedianMs},
    {"bench.trace_overhead_pct", "%", Agg::kMedianValue},
};

std::string span_of(const LayerMetric& m) {
  if (m.span != nullptr) return m.span;
  std::string name = m.name;
  if (name.ends_with("_ms")) name.resize(name.size() - 3);
  return name;
}

}  // namespace

std::vector<Metric> per_layer_metrics(const SpanRecorder& rec) {
  std::vector<Metric> out;
  for (const auto& m : kLayers) {
    const std::string span = span_of(m);
    double value = 0;
    switch (m.agg) {
      case Agg::kMedianMs:
        value = median(rec.durations(span));
        break;
      case Agg::kMedianValue:
        value = median(rec.values(span));
        break;
      case Agg::kSumValue:
        for (double v : rec.values(span)) value += v;
        break;
      case Agg::kCountSpans:
        value = static_cast<double>(rec.durations(span).size());
        break;
      case Agg::kLink: {
        // Client round trip minus the server handler's time, per query.
        std::map<std::uint64_t, double> rtt, handle;
        for (const auto& s : rec.spans()) {
          if (s.name == "net.tcp.rtt") rtt[s.op] = s.dur_ms;
          if (s.name == "core.server.handle") handle[s.op] = s.dur_ms;
        }
        std::vector<double> link;
        for (const auto& [op, r] : rtt) {
          const auto h = handle.find(op);
          if (h != handle.end()) link.push_back(r - h->second);
        }
        value = median(link);
        break;
      }
    }
    out.push_back({m.name, value, m.unit});
  }
  return out;
}

}  // namespace vpb
