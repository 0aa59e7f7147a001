// venue_arrivals: closed-loop connections (four, or fewer on a smaller
// host), each a stream of phones reaching venues of a server loaded from
// the saved v4 database. An arrival is a new phone: it requests the
// venue's oracle and codebook ('O'), installs it, runs one frame through
// process_frame and sends one compact fix. Every connection's first phone
// arrives at the cafeteria; later arrivals cycle the venues in an order
// drawn from the seed, each with one of a fixed set of eight frames per
// venue.
//
// A third into the run, once every first phone has its fix, connection 0
// re-publishes the cafeteria with a second, sparser wardrive pass (a write
// next to the reads). From then on arrivals download the new epoch, and
// each connection's first phone comes back with the old one: its next fix
// meets kStaleOracle and goes through RemoteLocalizer's refresh. Those
// returning phones count as operations but not in the first-fix latency.
#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

#include "replay.hpp"
#include "venues.hpp"
#include "workloads.hpp"

namespace vpb {
namespace {

constexpr std::size_t kViewsPerVenue = 8;
constexpr std::uint64_t kViewSeed = 1;
constexpr std::size_t kReplayOps = 4;

/// Shard snapshots by (place, epoch): what each download is checked
/// against, including the epoch the re-publish replaced.
class ShardHistory {
 public:
  void add(std::shared_ptr<const vp::PlaceShard> shard) {
    std::lock_guard lock(mu_);
    shards_[{shard->place, shard->epoch}] = std::move(shard);
  }
  std::shared_ptr<const vp::PlaceShard> at(const std::string& place,
                                           std::uint32_t epoch) const {
    std::lock_guard lock(mu_);
    const auto it = shards_.find({place, epoch});
    if (it == shards_.end()) {
      fail_check("download of " + place + " names an epoch never published");
    }
    return it->second;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::pair<std::string, std::uint32_t>,
           std::shared_ptr<const vp::PlaceShard>>
      shards_;
};

/// A phone with its link to the server.
struct Phone {
  std::unique_ptr<vp::VisualPrintClient> client;
  std::unique_ptr<vp::RemoteLocalizer> localizer;
  std::shared_ptr<double> last_install_ms = std::make_shared<double>(0);
};

Phone make_phone(MeasuredConnection& conn, std::uint64_t seed) {
  vp::ClientConfig cfg;
  cfg.top_k = 200;
  Phone p;
  p.client = std::make_unique<vp::VisualPrintClient>(cfg, seed);
  p.localizer = std::make_unique<vp::RemoteLocalizer>(conn.transport());
  p.localizer->enable_compact_uplink();
  vp::VisualPrintClient* client = p.client.get();
  p.localizer->on_oracle_refresh([client, install_ms = p.last_install_ms](
                                     const vp::OracleDownload& d) {
    const auto t0 = Clock::now();
    client->install_oracle(d);
    *install_ms = ms_between(t0, Clock::now());
  });
  return p;
}

struct Recorded {
  std::uint64_t op;
  const View* view;
  std::shared_ptr<vp::VisualPrintClient> phone;
  vp::Bytes request;
};

struct Phase {
  Ledger ledger;
  std::vector<double> first_fix_ms, query_bytes;
  VenueErrors errors;
  std::uint64_t returning = 0, stale_refreshes = 0, retries = 0;
  double ops = 0;     ///< operations completed
  double last_s = 0;  ///< when the connection's last one completed
  /// Closed-loop throughput: per connection, operations over the time to
  /// its last completion, summed (free of the run's ragged end).
  double rate = 0;
  std::vector<Recorded> recorded;
};

struct Context {
  const VenueSet& set;
  const std::map<std::string, std::vector<View>>& views;
  const std::map<std::string, std::vector<vp::Descriptor>>& probes;
  std::vector<std::string> order;  ///< venue cycle after the first arrival
  vp::VisualPrintServer& server;
  std::uint16_t port;
  std::uint64_t seed;
  ShardHistory& history;
};

Phase measure(Context& ctx, double seconds, std::atomic<std::uint64_t>& next_op,
              SpanRecorder* rec) {
  const std::size_t n = client_connections();
  std::vector<Phase> per(n);
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> first_done{0};
  std::atomic<bool> republished{false};
  const auto start = Clock::now();
  const auto time_left = [&] {
    return !stop && ms_between(start, Clock::now()) < seconds * 1e3;
  };

  const auto client = [&](std::size_t c) {
    Phase& ph = per[c];
    MeasuredConnection conn(ctx.port, ctx.seed * 37 + c);
    std::map<std::string, std::uint32_t> last_epoch;
    Phone kept;  // the connection's first (cafeteria) phone
    bool returned = false;
    double check_ms = 0;  // checks inside a timed window, taken back out
    const auto checked = [&](auto&& fn) {
      const auto t = Clock::now();
      fn();
      check_ms += ms_between(t, Clock::now());
    };
    const auto check_reply = [&](const vp::LocationResponse& resp,
                                 const View& view, const vp::FrameResult& fr) {
      for (const auto& req : conn.query_requests) {
        if (!check_sent_query(req, *fr.query, conn.codebooks)) {
          fail_check("venue_arrivals fix went out raw, not compact");
        }
      }
      if (resp.place != view.place) {
        fail_check("arrival reply names another venue");
      }
      if (resp.found) {
        ++ph.ledger.fixes;
        ph.errors[view.place].push_back(check_fix(
            resp, view.truth, ctx.server.store().snapshot(view.place)->config));
      } else {
        ++ph.ledger.no_fix;
      }
      ph.query_bytes.push_back(static_cast<double>(conn.last_query_wire_bytes));
    };

    for (std::size_t j = 0; time_left(); ) {
      // Connection 0 re-publishes once every first phone has its fix.
      if (c == 0 && !republished && first_done == n &&
          ms_between(start, Clock::now()) >= seconds * 1e3 / 3) {
        const auto old = ctx.server.store().snapshot(kRepublishedVenue);
        const auto t0 = Clock::now();
        ctx.server.ingest_wardrive(kRepublishedVenue, ctx.set.extension);
        if (rec != nullptr) {
          rec->span(0, "core.map_store.publish", "venue_arrivals.republish",
                    t0, Clock::now());
        }
        const auto fresh = ctx.server.store().snapshot(kRepublishedVenue);
        if (fresh->epoch <= old->epoch) {
          fail_check("re-publish did not grow the epoch");
        }
        ctx.history.add(fresh);
        republished = true;
        continue;
      }

      const std::uint64_t op = next_op++;
      const double stamp = static_cast<double>(op);
      conn.clear_queries();
      check_ms = 0;
      ++ph.ledger.attempted;

      if (republished && kept.client != nullptr && !returned) {
        // The first phone comes back holding the replaced epoch.
        returned = true;
        const auto& vs = ctx.views.at(kRepublishedVenue);
        const View& view = vs[(j + c) % vs.size()];
        const std::uint64_t stale_before = kept.localizer->stale_refreshes();
        vp::FrameResult fr;
        vp::LocationResponse resp;
        try {
          fr = kept.client->process_frame(view.image, stamp, stamp);
          if (fr.status != vp::FrameResult::Status::kQueued) {
            fail_check("a venue_arrivals frame produced no query");
          }
          checked([&] {
            check_selection(*kept.client->oracle(), view.features,
                            fr.query->features, kept.client->config().top_k);
          });
          resp = kept.localizer->localize(*fr.query);
        } catch (const CheckFailed&) {
          throw;
        } catch (const std::exception& e) {
          if (!record_failure(ph.ledger, e)) throw;
          continue;
        }
        ++ph.returning;
        ph.ops += 1;
        ph.last_s = ms_between(start, Clock::now()) / 1e3;
        if (kept.localizer->stale_refreshes() != stale_before + 1) {
          fail_check("a phone holding the replaced epoch was not refreshed");
        }
        const auto& dl = conn.downloads.at(kRepublishedVenue);
        check_download(*kept.client, dl, *ctx.history.at(dl.place, dl.epoch),
                       ctx.probes.at(dl.place));
        check_reply(resp, view, fr);
        continue;
      }

      // A new phone arrives.
      const std::string place = j == 0 ? kRepublishedVenue
                                       : ctx.order[(c + j) % ctx.order.size()];
      const auto& vs = ctx.views.at(place);
      const View& view = vs[(j * n + c) % vs.size()];
      ++j;
      Phone phone = make_phone(conn, ctx.seed * 1000003 + op);
      vp::FrameResult fr;
      vp::LocationResponse resp;
      vp::OracleDownload dl;
      double first_fix = 0;
      double frame_ms = 0;
      try {
        const auto t0 = Clock::now();
        dl = phone.localizer->fetch_oracle(place);
        checked([&] {
          auto& last = last_epoch[place];
          if (dl.epoch < last) {
            fail_check("a later download carries an older epoch");
          }
          last = dl.epoch;
          check_download(*phone.client, dl, *ctx.history.at(place, dl.epoch),
                         ctx.probes.at(place));
        });
        const auto tf = Clock::now();
        fr = phone.client->process_frame(view.image, stamp, stamp);
        frame_ms = ms_between(tf, Clock::now());
        if (fr.status != vp::FrameResult::Status::kQueued) {
          fail_check("a venue_arrivals frame produced no query");
        }
        checked([&] {
          check_selection(*phone.client->oracle(), view.features,
                          fr.query->features, phone.client->config().top_k);
        });
        resp = phone.localizer->localize(*fr.query);
        first_fix = ms_between(t0, Clock::now()) - check_ms;
      } catch (const CheckFailed&) {
        throw;
      } catch (const std::exception& e) {
        if (!record_failure(ph.ledger, e)) throw;
        continue;
      }
      ph.first_fix_ms.push_back(first_fix);
      ph.ops += 1;
      ph.last_s = ms_between(start, Clock::now()) / 1e3;
      ph.stale_refreshes += phone.localizer->stale_refreshes();
      if (rec != nullptr) {
        const char* parent = "venue_arrivals.first_fix";
        rec->span_ms(op, parent, "", first_fix);
        rec->span_ms(op, "core.client.oracle_install", parent,
                     *phone.last_install_ms);
        rec->span_ms(op, "core.client.process_frame", parent, frame_ms);
        rec->span_ms(op, "net.tcp.rtt", parent, conn.last_query_rtt_ms);
        rec->count(op, "net.wire.oracle_bytes",
                   static_cast<double>(conn.last_oracle_wire_bytes));
        rec->count(op, "net.wire.query_bytes",
                   static_cast<double>(conn.last_query_wire_bytes));
        if (ph.recorded.size() < kReplayOps) {
          // A copy of the phone: the replay needs its oracle.
          ph.recorded.push_back(
              {op, &view,
               std::make_shared<vp::VisualPrintClient>(*phone.client),
               conn.query_requests.back()});
        }
      }
      check_reply(resp, view, fr);
      if (place == kRepublishedVenue && kept.client == nullptr) {
        kept = std::move(phone);
        ++first_done;
      }
    }
    if (kept.localizer != nullptr) {
      ph.stale_refreshes += kept.localizer->stale_refreshes();
    }
    ph.retries = conn.retry_stats().retries;
  };
  run_parallel(n, client, &stop);

  Phase all;
  for (auto& ph : per) {
    if (ph.last_s > 0) all.rate += ph.ops / ph.last_s;
    all.ledger.add(ph.ledger);
    all.first_fix_ms.insert(all.first_fix_ms.end(), ph.first_fix_ms.begin(),
                            ph.first_fix_ms.end());
    all.query_bytes.insert(all.query_bytes.end(), ph.query_bytes.begin(),
                           ph.query_bytes.end());
    for (const auto& [venue, e] : ph.errors) {
      all.errors[venue].insert(all.errors[venue].end(), e.begin(), e.end());
    }
    all.returning += ph.returning;
    all.stale_refreshes += ph.stale_refreshes;
    all.retries += ph.retries;
    for (auto& r : ph.recorded) all.recorded.push_back(std::move(r));
  }
  if (!republished) {
    fail_check("the run ended before the cafeteria was re-published");
  }
  if (all.returning == 0) fail_check("no phone came back after the re-publish");
  return all;
}

}  // namespace

RunOutput run_venue_arrivals(const Args& args) {
  const VenueSet set = load_venues(args.cache_dir, true);
  std::map<std::string, std::vector<View>> views;
  std::map<std::string, std::vector<vp::Descriptor>> probes;
  for (const auto& v : set.venues) {
    views[v.place] = render_views(v, kViewsPerVenue, kViewSeed, 0, true);
    const std::size_t stride = v.mappings.size() / 32;
    for (std::size_t i = 0; i < v.mappings.size(); i += stride) {
      probes[v.place].push_back(v.mappings[i].feature.descriptor);
    }
  }
  const std::size_t stride = set.extension.size() / 16;
  for (std::size_t i = 0; i < set.extension.size(); i += stride) {
    probes[kRepublishedVenue].push_back(set.extension[i].feature.descriptor);
  }
  std::vector<std::string> order(std::begin(kVenueNames),
                                 std::end(kVenueNames));
  vp::Rng rng(args.seed ^ 0xA881);
  std::shuffle(order.begin(), order.end(), rng);
  const std::uint64_t solver_seed = args.seed * 7919 + 13;

  SpanRecorder trace;
  SpanRecorder* rec = args.trace ? &trace : nullptr;
  std::vector<double> setup_s;
  LoadedServer loaded;
  const auto fresh_server = [&](int reps) {
    loaded.served.reset();
    loaded.server.reset();
    loaded = load_and_serve(set.db_path, solver_seed, reps, setup_s, rec);
    loaded.served->set_recorder(nullptr);
  };
  fresh_server(kSetupReps);

  std::atomic<std::uint64_t> next_op{1};
  const auto run_phase = [&](SpanRecorder* phase_rec) {
    ShardHistory history;
    for (const char* name : kVenueNames) {
      history.add(loaded.server->store().snapshot(name));
    }
    Context ctx{set, views, probes, order, *loaded.server,
                loaded.served->port(),
                args.seed, history};
    loaded.served->set_recorder(phase_rec);
    Phase ph = measure(ctx, args.seconds, next_op, phase_rec);
    loaded.served->set_recorder(nullptr);
    return ph;
  };

  RunOutput out;
  if (!args.trace) {
    const Phase ph = run_phase(nullptr);
    std::printf("%s returning=%llu stale_refreshes=%llu\n",
                ph.ledger.to_line("venue_arrivals", "measure").c_str(),
                static_cast<unsigned long long>(ph.returning),
                static_cast<unsigned long long>(ph.stale_refreshes));
    check_accuracy(ph.errors, kLoadedErrorBoundM, "venue_arrivals");
    out.attempted = ph.ledger.attempted;
    out.failed = ph.ledger.failed();
    out.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"op_ms_mean", mean(ph.first_fix_ms), "ms"},
        {"ops_per_s", ph.rate, "1/s"},
        {"uplink_bytes_per_query", median(ph.query_bytes), "bytes"},
    };
    std::printf(
        "venue_arrivals: first_fix_ms p50=%.1f over %zu arrivals, "
        "setup_s=%s\n",
        median(ph.first_fix_ms), ph.first_fix_ms.size(),
        list(setup_s).c_str());
    return out;
  }

  // Traced run: the untraced phase re-publishes the cafeteria, so the
  // traced phase starts from a freshly loaded database again.
  const Phase plain = run_phase(nullptr);
  fresh_server(1);
  const Phase traced = run_phase(rec);
  std::printf("%s\n",
              plain.ledger.to_line("venue_arrivals", "untraced").c_str());
  std::printf("%s\n",
              traced.ledger.to_line("venue_arrivals", "traced").c_str());
  for (const auto& r : traced.recorded) {
    replay_client_frame(trace, r.op, r.view->image, *r.phone,
                        r.phone->codebook_blob());
    replay_server_query(trace, r.op, r.request, *loaded.server, solver_seed);
  }
  trace.count(0, "net.retries", static_cast<double>(traced.retries));
  trace.count(0, "core.server.shed",
              static_cast<double>(loaded.server->admission().shed()));
  trace.count(0, "core.remote.stale_refreshes",
              static_cast<double>(traced.stale_refreshes));
  trace.count(0, "bench.trace_overhead_pct",
              overhead_pct(mean(plain.first_fix_ms),
                           mean(traced.first_fix_ms)));
  check_accuracy(traced.errors, kLoadedErrorBoundM, "venue_arrivals traced");
  out.attempted = plain.ledger.attempted + traced.ledger.attempted;
  out.failed = plain.ledger.failed() + traced.ledger.failed();
  out.metrics = per_layer_metrics(trace);
  trace.write_jsonl(args.out_dir + "/trace-venue_arrivals-" +
                    std::to_string(args.seed) + ".jsonl");
  return out;
}

}  // namespace vpb
