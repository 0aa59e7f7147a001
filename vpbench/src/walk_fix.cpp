// walk_fix: one phone walking the office, closed loop on one connection.
// Each frame goes through VisualPrintClient::process_frame on the calling
// thread (a phone's frame thread), then RemoteLocalizer with the compact
// uplink over RetryingClient and TCP loopback to the server, and returns a
// pose. Every eighth frame is motion-blurred; the blur gate's rejections
// count as work done.
//
// The walk's frames are a fixed set of 20 views of the office; the seed
// draws the route through them (their order) and the solver's seed. Fix
// times differ from frame to frame by up to 3x, so a run that covered a
// different subset of frames each time would not repeat: a run walks the
// route whole, as many times as fit in the measured time, finishing the
// pass it is on when time is up.
#include <algorithm>
#include <memory>

#include "replay.hpp"
#include "venues.hpp"
#include "workloads.hpp"

namespace vpb {
namespace {

constexpr std::size_t kWalkFrames = 20;
constexpr std::uint64_t kWalkSeed = 1;
constexpr std::size_t kBlurEvery = 8;
constexpr std::size_t kReplayOps = 6;

/// One phone connected to one served office venue. Members are destroyed
/// in reverse order: the phone's link before the server it talks to.
struct Session {
  std::unique_ptr<vp::VisualPrintServer> server;
  std::unique_ptr<ServedServer> served;
  std::unique_ptr<MeasuredConnection> conn;
  std::unique_ptr<vp::VisualPrintClient> phone;
  std::unique_ptr<vp::RemoteLocalizer> localizer;

  void close() {
    localizer.reset();
    phone.reset();
    conn.reset();
    served.reset();
    server.reset();
  }
};

struct Phase {
  Ledger ledger;
  std::vector<double> fix_ms, frame_ms, query_bytes;
  VenueErrors errors;
  double rate = 0;  ///< replies per second up to the last reply
  std::vector<std::pair<std::uint64_t, std::size_t>> ops;  ///< (op, view)
  std::vector<vp::Bytes> requests;  ///< last 'Q' request per op
};

Phase measure(Session& s, const std::vector<View>& views, double seconds,
              std::uint64_t& next_op, const Venue& office,
              SpanRecorder* rec) {
  Phase ph;
  const auto start = Clock::now();
  const std::size_t top_k = s.phone->config().top_k;
  double last_reply_s = 0;
  for (std::size_t i = 0;
       i % views.size() != 0 ||
       ms_between(start, Clock::now()) < seconds * 1e3;
       ++i) {
    const View& view = views[i % views.size()];
    const std::uint64_t op = next_op++;
    const double stamp = static_cast<double>(op);
    s.conn->clear_queries();
    ++ph.ledger.attempted;
    const auto t0 = Clock::now();
    const vp::FrameResult fr =
        s.phone->process_frame(view.image, stamp, stamp);
    const auto t1 = Clock::now();
    if (fr.status == vp::FrameResult::Status::kBlurRejected) {
      ++ph.ledger.blur_rejected;
      continue;
    }
    if (fr.status != vp::FrameResult::Status::kQueued) {
      fail_check("a walk frame produced no query");
    }
    vp::LocationResponse resp;
    try {
      resp = s.localizer->localize(*fr.query);
    } catch (const std::exception& e) {
      if (!record_failure(ph.ledger, e)) throw;
      continue;
    }
    const auto t2 = Clock::now();
    last_reply_s = ms_between(start, t2) / 1e3;
    ph.frame_ms.push_back(ms_between(t0, t1));
    ph.fix_ms.push_back(ms_between(t0, t2));
    const auto query_bytes = static_cast<double>(s.conn->last_query_wire_bytes);
    ph.query_bytes.push_back(query_bytes);
    if (rec != nullptr) {
      rec->span(op, "walk_fix.fix", "", t0, t2);
      rec->span(op, "core.client.process_frame", "walk_fix.fix", t0, t1);
      rec->span_ms(op, "net.tcp.rtt", "walk_fix.fix",
                   s.conn->last_query_rtt_ms);
      rec->count(op, "net.wire.query_bytes", query_bytes);
      ph.ops.emplace_back(op, i % views.size());
      ph.requests.push_back(s.conn->query_requests.back());
    }

    // Checks, outside the timed window.
    check_selection(*s.phone->oracle(), view.features, fr.query->features,
                    top_k);
    for (const auto& req : s.conn->query_requests) {
      if (!check_sent_query(req, *fr.query, s.conn->codebooks)) {
        fail_check("walk_fix query went out raw, not compact");
      }
    }
    if (resp.place != "office") {
      fail_check("walk_fix reply names another venue");
    }
    if (resp.found) {
      ++ph.ledger.fixes;
      ph.errors["office"].push_back(
          check_fix(resp, view.truth, office.config));
    } else {
      ++ph.ledger.no_fix;
    }
  }
  const auto replies = static_cast<double>(ph.ledger.fixes + ph.ledger.no_fix);
  ph.rate = last_reply_s > 0 ? replies / last_reply_s : 0;
  return ph;
}

}  // namespace

RunOutput run_walk_fix(const Args& args) {
  const VenueSet set = load_venues(args.cache_dir, false);
  const Venue& office = set.venue("office");
  std::vector<View> views =
      render_views(office, kWalkFrames, kWalkSeed, kBlurEvery, true);
  vp::Rng route(args.seed ^ 0x3A1C);
  std::shuffle(views.begin(), views.end(), route);
  const std::uint64_t solver_seed = args.seed * 7919 + 7;

  vp::ClientConfig client_cfg;
  client_cfg.top_k = 200;  // the paper's 200 keypoints per query

  SpanRecorder trace;
  SpanRecorder* rec = args.trace ? &trace : nullptr;

  // Set-up, three times; the last session stays up for the measurement.
  std::vector<double> setup_s;
  Session s;
  std::vector<vp::Descriptor> probes;
  const std::size_t stride = office.mappings.size() / 48;
  for (std::size_t i = 0; i < office.mappings.size(); i += stride) {
    probes.push_back(office.mappings[i].feature.descriptor);
  }
  for (int rep = 0; rep < 3; ++rep) {
    s.close();
    const auto t0 = Clock::now();
    s.server = std::make_unique<vp::VisualPrintServer>(office.config);
    s.server->ingest_wardrive("office", office.mappings, &office.config);
    if (rec != nullptr) {
      rec->span(0, "core.map_store.publish", "setup", t0, Clock::now());
    }
    s.served = std::make_unique<ServedServer>(*s.server, solver_seed, rec);
    s.conn = std::make_unique<MeasuredConnection>(s.served->port(), args.seed);
    s.phone = std::make_unique<vp::VisualPrintClient>(client_cfg, args.seed);
    s.localizer = std::make_unique<vp::RemoteLocalizer>(s.conn->transport());
    s.localizer->enable_compact_uplink();
    vp::VisualPrintClient* phone = s.phone.get();
    s.localizer->on_oracle_refresh([phone, rec](const vp::OracleDownload& d) {
      const auto ti = Clock::now();
      phone->install_oracle(d);
      if (rec != nullptr) {
        rec->span(0, "core.client.oracle_install", "setup", ti, Clock::now());
      }
    });
    const vp::OracleDownload dl = s.localizer->fetch_oracle("office");
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    if (rec != nullptr) {
      rec->count(0, "net.wire.oracle_bytes",
                 static_cast<double>(s.conn->last_oracle_wire_bytes));
    }
    check_download(*s.phone, dl, *s.server->store().snapshot("office"), probes);
  }

  std::uint64_t next_op = 1;
  RunOutput out;
  if (!args.trace) {
    const Phase ph = measure(s, views, args.seconds, next_op, office, nullptr);
    std::printf("%s\n", ph.ledger.to_line("walk_fix", "measure").c_str());
    check_accuracy(ph.errors, kErrorBoundM, "walk_fix");
    out.attempted = ph.ledger.attempted;
    out.failed = ph.ledger.failed();
    out.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"op_ms_mean", mean(ph.fix_ms), "ms"},
        {"ops_per_s", ph.rate, "1/s"},
        {"uplink_bytes_per_query", median(ph.query_bytes), "bytes"},
    };
    std::printf(
        "walk_fix: frame_ms p50=%.2f, fix_ms p50=%.2f p90=%.2f over %zu "
        "fixes, setup_s=%s\n",
        median(ph.frame_ms), median(ph.fix_ms), percentile(ph.fix_ms, 90),
        ph.fix_ms.size(), list(setup_s).c_str());
    return out;
  }

  // Traced run: an untraced phase, then a traced phase over the same
  // frames, then the per-layer replay of the traced phase's first frames.
  s.served->set_recorder(nullptr);
  const Phase plain = measure(s, views, args.seconds, next_op, office, nullptr);
  s.served->set_recorder(rec);
  const Phase traced = measure(s, views, args.seconds, next_op, office, rec);
  s.served->set_recorder(nullptr);
  std::printf("%s\n", plain.ledger.to_line("walk_fix", "untraced").c_str());
  std::printf("%s\n", traced.ledger.to_line("walk_fix", "traced").c_str());
  const auto& book = s.conn->downloads.at("office").codebook;
  for (std::size_t i = 0; i < std::min(kReplayOps, traced.ops.size()); ++i) {
    const auto [op, view] = traced.ops[i];
    replay_client_frame(trace, op, views[view].image, *s.phone, book);
    replay_server_query(trace, op, traced.requests[i], *s.server, solver_seed);
  }
  trace.count(0, "net.retries",
              static_cast<double>(s.conn->retry_stats().retries));
  trace.count(0, "core.server.shed",
              static_cast<double>(s.server->admission().shed()));
  trace.count(0, "core.remote.stale_refreshes",
              static_cast<double>(s.localizer->stale_refreshes()));
  trace.count(0, "bench.trace_overhead_pct",
              overhead_pct(mean(plain.fix_ms), mean(traced.fix_ms)));
  check_accuracy(traced.errors, kErrorBoundM, "walk_fix traced");
  out.attempted = plain.ledger.attempted + traced.ledger.attempted;
  out.failed = plain.ledger.failed() + traced.ledger.failed();
  out.metrics = per_layer_metrics(trace);
  trace.write_jsonl(args.out_dir + "/trace-walk_fix-" +
                    std::to_string(args.seed) + ".jsonl");
  return out;
}

}  // namespace vpb
