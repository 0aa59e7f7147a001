// venue_load: closed-loop connections (four, or fewer on a smaller host)
// send fingerprints pre-extracted from 920x540 views of the three venues
// to a server loaded from the saved v4 database. No client SIFT runs while
// measuring, so retrieval over the larger maps, the fan-out over every
// shard, the admission gate and the solver under contention carry the time.
//
// The fingerprints come from a fixed pool of 48 views per venue, selected
// by the client's own process_frame against each venue's downloaded oracle
// and cached with the venues. The seed draws the traffic over the pool: its
// order, and each view's kind (about 72% venue-targeted compact v4 queries,
// 14% targeted raw v2, 14% raw v3 with an unsampled trace id). Solve times
// differ from view to view by two orders of magnitude, so a run that
// covered a different handful of views each time would not repeat; a run
// covers the whole pool more than once.
//
// A round is 36 targeted queries plus one fixed view per venue sent as a
// place-less fan-out query. The fan-out picks the place whose largest
// cluster is biggest, and today it answers the cafeteria's and the
// grocery's fixed views with the office: those two replies are counted as
// failed (wrong_venue) in every round, and runs end on whole rounds, so
// the failed share is the same in every run.
#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>

#include "net/wire.hpp"
#include "replay.hpp"
#include "util/bytes.hpp"
#include "venues.hpp"
#include "workloads.hpp"

namespace vpb {
namespace {

constexpr std::size_t kPoolPerVenue = 48;
constexpr std::uint64_t kPoolSeed = 1;
constexpr std::uint64_t kFanOutViewSeed = 2016;
constexpr std::size_t kTargetedPerRound = 36;
constexpr std::uint32_t kPoolMagic = 0x56505031;  // "VPP1"

enum class Kind { kCompact, kRawV2, kRawV3, kFanOut };

struct Query {
  Kind kind = Kind::kCompact;
  std::string venue;  ///< where the view was rendered
  vp::Vec3 truth;
  vp::FingerprintQuery query;
  vp::Bytes request;  ///< 'Q' + encoded query, as sent (ids restamped)
};

/// The client's own process_frame against the venue's downloaded oracle.
std::vector<Query> select_views(const VenueSet& set, const Venue& venue,
                                std::size_t n, std::uint64_t seed) {
  const auto views = render_views(venue, n, seed, 0, false);
  std::vector<Query> qs(views.size());
  std::atomic<std::size_t> next{0};
  run_parallel(std::min(worker_count(), n), [&](std::size_t) {
    vp::ClientConfig cfg;
    cfg.top_k = 200;
    vp::VisualPrintClient phone(cfg, seed);
    phone.install_oracle(set.downloads.at(venue.place));
    for (std::size_t i = next++; i < views.size(); i = next++) {
      const auto fr = phone.process_frame(views[i].image, 0, 0);
      if (!fr.query) fail_check("a venue_load view produced no query");
      qs[i] = {Kind::kRawV2, venue.place, views[i].truth, *fr.query, {}};
    }
  });
  return qs;
}

/// The pool: every venue's targeted views, then one fan-out view per venue.
std::vector<Query> load_pool(const VenueSet& set,
                             const std::string& cache_dir) {
  const std::string path = cache_dir + "/fingerprints.bin";
  std::vector<Query> pool;
  if (std::filesystem::exists(path)) {
    const vp::Bytes blob = read_file(path);
    vp::ByteReader r(blob);
    if (r.u32() == kPoolMagic) {
      pool.resize(r.u32());
      for (auto& q : pool) {
        q.kind = static_cast<Kind>(r.u8());
        q.venue = r.str();
        q.truth.x = r.f64();
        q.truth.y = r.f64();
        q.truth.z = r.f64();
        q.query = vp::FingerprintQuery::decode(r.blob());
      }
      return pool;
    }
  }
  for (const auto& venue : set.venues) {
    for (auto& q : select_views(set, venue, kPoolPerVenue, kPoolSeed)) {
      pool.push_back(std::move(q));
    }
  }
  for (const auto& venue : set.venues) {
    Query q = select_views(set, venue, 1, kFanOutViewSeed).front();
    q.kind = Kind::kFanOut;
    q.query.place.clear();
    q.query.oracle_epoch = 0;
    pool.push_back(std::move(q));
  }
  vp::ByteWriter w;
  w.u32(kPoolMagic);
  w.u32(static_cast<std::uint32_t>(pool.size()));
  for (const auto& q : pool) {
    w.u8(static_cast<std::uint8_t>(q.kind));
    w.str(q.venue);
    w.f64(q.truth.x);
    w.f64(q.truth.y);
    w.f64(q.truth.z);
    w.blob(q.query.encode());
  }
  write_file(path, w.bytes());
  return pool;
}

vp::Bytes frame_request(const vp::FingerprintQuery& q) {
  vp::Bytes req{vp::kQueryRequest};
  const vp::Bytes body = q.encode();
  req.insert(req.end(), body.begin(), body.end());
  return req;
}

/// The run's traffic over the pool, drawn from the seed.
struct Schedule {
  std::vector<Query> targeted;  ///< in the seed's order, kinds assigned
  std::vector<Query> fanout;
  std::vector<bool> fanout_at;  ///< per position of a round

  std::size_t round_size() const { return fanout_at.size(); }
  /// Query of operation k (0-based within a phase) and its pool index.
  const Query& at(std::uint64_t k, std::size_t& index) const {
    const std::uint64_t round = k / round_size();
    const std::size_t pos = k % round_size();
    std::size_t before = 0;  // fan-out positions before pos
    for (std::size_t p = 0; p < pos; ++p) before += fanout_at[p] ? 1 : 0;
    if (fanout_at[pos]) {
      index = targeted.size() + before;
      return fanout[before];
    }
    index = (round * kTargetedPerRound + pos - before) % targeted.size();
    return targeted[index];
  }
  const Query& by_index(std::size_t index) const {
    return index < targeted.size() ? targeted[index]
                                   : fanout[index - targeted.size()];
  }
};

Schedule build_schedule(const VenueSet& set, std::vector<Query> pool,
                        std::uint64_t seed, CodebookMap& books) {
  Schedule s;
  for (auto& q : pool) {
    (q.kind == Kind::kFanOut ? s.fanout : s.targeted).push_back(std::move(q));
  }
  vp::Rng rng(seed ^ 0x10AD);
  std::shuffle(s.targeted.begin(), s.targeted.end(), rng);
  for (auto& q : s.targeted) {
    const double u = rng.uniform();
    q.kind = u < 0.72 ? Kind::kCompact : u < 0.86 ? Kind::kRawV2 : Kind::kRawV3;
    if (q.kind == Kind::kRawV3) q.query.trace_id = 1;
    if (q.kind != Kind::kCompact) continue;
    const vp::OracleDownload& dl = set.downloads.at(q.venue);
    const vp::PqCodebook book = vp::PqCodebook::from_raw(dl.codebook);
    q.query.codes.resize(q.query.features.size() * vp::kPqCodeBytes);
    for (std::size_t f = 0; f < q.query.features.size(); ++f) {
      book.encode(q.query.features[f].descriptor.data(),
                  q.query.codes.data() + f * vp::kPqCodeBytes);
    }
    q.query.codebook_epoch = dl.epoch;
  }
  s.fanout_at.assign(kTargetedPerRound + s.fanout.size(), false);
  for (std::size_t i = 0; i < s.fanout.size(); ++i) s.fanout_at[i] = true;
  std::shuffle(s.fanout_at.begin(), s.fanout_at.end(), rng);
  for (const auto& [place, dl] : set.downloads) {
    books[{place, dl.epoch}] = dl.codebook;
  }
  // Every query as it will be sent, checked once against the brute-force
  // encoding and the size formula; sends restamp only the ids.
  for (auto* qs : {&s.targeted, &s.fanout}) {
    for (auto& q : *qs) {
      q.request = frame_request(q.query);
      check_sent_query(q.request, q.query, books);
    }
  }
  return s;
}

struct Phase {
  Ledger ledger;
  std::vector<double> query_ms, query_bytes;
  std::map<std::string, std::vector<double>> errors;  ///< by venue
  double ops = 0;     ///< operations completed
  double last_s = 0;  ///< when the connection's last one completed
  /// Closed-loop throughput: per connection, operations over the time to
  /// its last completion, summed (free of the run's ragged end).
  double rate = 0;
  struct Sent {
    std::uint64_t op;
    std::size_t query;
    vp::Bytes request;
  };
  std::vector<Sent> sent;  ///< traced phase only
  std::uint64_t retries = 0;
};

Phase measure(std::uint16_t port, const vp::VisualPrintServer& server,
              const Schedule& schedule, double seconds, std::uint64_t seed,
              std::atomic<std::uint64_t>& next_op, SpanRecorder* rec) {
  const std::size_t n = client_connections();
  std::vector<Phase> per(n);
  const auto start = Clock::now();
  const std::uint64_t first_op = next_op.load();
  std::atomic<bool> stop{false};
  // Operations are handed out in order; once time is up no new round
  // starts, but every round begun is finished.
  std::mutex dispense_mu;
  const auto dispense = [&](std::uint64_t& op) {
    std::lock_guard lock(dispense_mu);
    const std::uint64_t k = next_op.load() - first_op;
    if (stop || (k % schedule.round_size() == 0 &&
                 ms_between(start, Clock::now()) >= seconds * 1e3)) {
      return false;
    }
    op = next_op++;
    return true;
  };
  const auto client = [&](std::size_t c) {
    Phase& ph = per[c];
    MeasuredConnection conn(port, seed * 31 + c);
    std::uint64_t op = 0;
    while (dispense(op)) {
      std::size_t qi = 0;
      const Query& q = schedule.at(op - first_op, qi);
      vp::FingerprintQuery fq = q.query;
      fq.frame_id = static_cast<std::uint32_t>(op);
      fq.capture_time = static_cast<double>(op);
      if (q.kind == Kind::kRawV3) fq.trace_id = op;
      ++ph.ledger.attempted;
      const auto t0 = Clock::now();
      const vp::Bytes req = frame_request(fq);
      vp::LocationResponse resp;
      try {
        resp = vp::LocationResponse::decode(conn.request(req));
      } catch (const std::exception& e) {
        if (!record_failure(ph.ledger, e)) throw;
        continue;
      }
      const auto t1 = Clock::now();
      ph.ops += 1;
      ph.last_s = ms_between(start, t1) / 1e3;
      ph.query_ms.push_back(ms_between(t0, t1));
      ph.query_bytes.push_back(static_cast<double>(conn.last_query_wire_bytes));
      if (rec != nullptr) {
        rec->span_ms(op, "net.tcp.rtt", "venue_load.query",
                     conn.last_query_rtt_ms);
        rec->count(op, "net.wire.query_bytes",
                   static_cast<double>(conn.last_query_wire_bytes));
        ph.sent.push_back({op, qi, req});
      }
      if (req.size() != q.request.size()) {
        fail_check("restamped query changed its wire size");
      }
      if (resp.place != q.venue) {
        if (q.kind != Kind::kFanOut) {
          fail_check("targeted reply names '" + resp.place +
                     "' for a query to " + q.venue);
        }
        ++ph.ledger.wrong_venue;
        continue;
      }
      if (resp.found) {
        ++ph.ledger.fixes;
        const double err =
            check_fix(resp, q.truth, server.store().snapshot(q.venue)->config);
        ph.errors[q.venue].push_back(err);
      } else {
        ++ph.ledger.no_fix;
      }
    }
    ph.retries = conn.retry_stats().retries;
  };
  run_parallel(n, client, &stop);
  Phase all;
  for (auto& ph : per) {
    if (ph.last_s > 0) all.rate += ph.ops / ph.last_s;
    all.ledger.add(ph.ledger);
    all.query_ms.insert(all.query_ms.end(), ph.query_ms.begin(),
                        ph.query_ms.end());
    all.query_bytes.insert(all.query_bytes.end(), ph.query_bytes.begin(),
                           ph.query_bytes.end());
    for (const auto& [venue, e] : ph.errors) {
      all.errors[venue].insert(all.errors[venue].end(), e.begin(), e.end());
    }
    all.sent.insert(all.sent.end(), ph.sent.begin(), ph.sent.end());
    all.retries += ph.retries;
  }
  return all;
}

}  // namespace

RunOutput run_venue_load(const Args& args) {
  const VenueSet set = load_venues(args.cache_dir, true);
  CodebookMap books;
  const Schedule schedule =
      build_schedule(set, load_pool(set, args.cache_dir), args.seed, books);
  const std::uint64_t solver_seed = args.seed * 7919 + 11;

  SpanRecorder trace;
  SpanRecorder* rec = args.trace ? &trace : nullptr;

  std::vector<double> setup_s;
  LoadedServer loaded =
      load_and_serve(set.db_path, solver_seed, kSetupReps, setup_s, rec);
  vp::VisualPrintServer* server = loaded.server.get();
  ServedServer* served = loaded.served.get();
  served->set_recorder(nullptr);
  // The downloads the fingerprints were selected and encoded against must
  // be what the loaded database serves.
  for (const auto& [place, dl] : set.downloads) {
    const auto shard = server->store().snapshot(place);
    if (shard == nullptr || shard->epoch != dl.epoch) {
      fail_check("loaded database serves another epoch of " + place);
    }
    const auto raw = shard->index.pq_codebook().raw();
    if (!std::equal(dl.codebook.begin(), dl.codebook.end(), raw.begin(),
                    raw.end())) {
      fail_check("loaded database serves another codebook for " + place);
    }
  }

  std::atomic<std::uint64_t> next_op{1};
  RunOutput out;
  if (!args.trace) {
    const Phase ph = measure(served->port(), *server, schedule, args.seconds,
                             args.seed, next_op, nullptr);
    std::printf("%s\n", ph.ledger.to_line("venue_load", "measure").c_str());
    check_accuracy(ph.errors, kLoadedErrorBoundM, "venue_load");
    out.attempted = ph.ledger.attempted;
    out.failed = ph.ledger.failed();
    out.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"op_ms_mean", mean(ph.query_ms), "ms"},
        {"ops_per_s", ph.rate, "1/s"},
        {"uplink_bytes_per_query", median(ph.query_bytes), "bytes"},
    };
    std::printf(
        "venue_load: query_ms p50=%.2f p90=%.2f over %zu queries, "
        "setup_s=%s\n",
        median(ph.query_ms), percentile(ph.query_ms, 90), ph.query_ms.size(),
        list(setup_s).c_str());
    return out;
  }

  const Phase plain = measure(served->port(), *server, schedule, args.seconds,
                              args.seed, next_op, nullptr);
  served->set_recorder(rec);
  const Phase traced = measure(served->port(), *server, schedule, args.seconds,
                               args.seed, next_op, rec);
  served->set_recorder(nullptr);
  std::printf("%s\n", plain.ledger.to_line("venue_load", "untraced").c_str());
  std::printf("%s\n", traced.ledger.to_line("venue_load", "traced").c_str());
  // Per-layer replay of the traced phase's first round (fan-out queries
  // included), as many at a time as there are client connections.
  std::vector<Phase::Sent> first_round = traced.sent;
  std::sort(first_round.begin(), first_round.end(),
            [](const auto& a, const auto& b) { return a.op < b.op; });
  first_round.resize(std::min(first_round.size(), schedule.round_size()));
  const std::size_t n = first_round.size();
  std::atomic<std::size_t> next{0};
  const auto replay = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      const auto& [op, qi, req] = first_round[i];
      const vp::FingerprintQuery q = vp::FingerprintQuery::decode(
          std::span<const std::uint8_t>(req).subspan(1));
      if (q.compact()) {
        // The client-side encode this query paid before it was sent.
        const vp::PqCodebook book =
            vp::PqCodebook::from_raw(books.at({q.place, q.codebook_epoch}));
        const auto& features = schedule.by_index(qi).query.features;
        std::vector<std::uint8_t> codes(features.size() * vp::kPqCodeBytes);
        trace.timed(op, "features.pq.encode", "venue_load.query", [&] {
          for (std::size_t f = 0; f < features.size(); ++f) {
            book.encode(features[f].descriptor.data(),
                        codes.data() + f * vp::kPqCodeBytes);
          }
        });
      }
      trace.timed(op, "net.wire.query_encode", "venue_load.query",
                  [&] { return q.encode(); });
      replay_server_query(trace, op, req, *server, solver_seed);
    }
  };
  run_parallel(client_connections(), [&](std::size_t) { replay(); });
  trace.count(0, "net.retries", static_cast<double>(traced.retries));
  trace.count(0, "core.server.shed",
              static_cast<double>(server->admission().shed()));
  trace.count(0, "bench.trace_overhead_pct",
              overhead_pct(mean(plain.query_ms), mean(traced.query_ms)));
  check_accuracy(traced.errors, kLoadedErrorBoundM, "venue_load traced");
  out.attempted = plain.ledger.attempted + traced.ledger.attempted;
  out.failed = plain.ledger.failed() + traced.ledger.failed();
  out.metrics = per_layer_metrics(trace);
  trace.write_jsonl(args.out_dir + "/trace-venue_load-" +
                    std::to_string(args.seed) + ".jsonl");
  return out;
}

}  // namespace vpb
