#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "net/wire.hpp"
#include "util/error.hpp"

namespace vpb {

void fail_check(const std::string& what) { throw CheckFailed(what); }

std::size_t worker_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 64);
}

std::size_t client_connections() {
  return std::min<std::size_t>(4, worker_count());
}

void run_parallel(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::atomic<bool>* stop) {
  std::mutex mu;
  std::exception_ptr first;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard lock(mu);
        if (!first) first = std::current_exception();
        if (stop != nullptr) stop->store(true);
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first) std::rethrow_exception(first);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

std::string list(const std::vector<double>& v) {
  std::string out = "[";
  for (double x : v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.3f", out.size() > 1 ? " " : "", x);
    out += buf;
  }
  return out + "]";
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

void Ledger::add(const Ledger& o) {
  attempted += o.attempted;
  fixes += o.fixes;
  no_fix += o.no_fix;
  blur_rejected += o.blur_rejected;
  error_reply += o.error_reply;
  retry_exhausted += o.retry_exhausted;
  shed += o.shed;
  wrong_venue += o.wrong_venue;
}

std::string Ledger::to_line(const std::string& workload,
                            const char* phase) const {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "ledger workload=%s phase=%s attempted=%llu fixes=%llu "
                "no_fix=%llu blur_rejected=%llu failed=%llu "
                "(error_reply=%llu retry_exhausted=%llu shed=%llu "
                "wrong_venue=%llu)",
                workload.c_str(), phase,
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(fixes),
                static_cast<unsigned long long>(no_fix),
                static_cast<unsigned long long>(blur_rejected),
                static_cast<unsigned long long>(failed()),
                static_cast<unsigned long long>(error_reply),
                static_cast<unsigned long long>(retry_exhausted),
                static_cast<unsigned long long>(shed),
                static_cast<unsigned long long>(wrong_venue));
  return buf;
}

// --- spans ----------------------------------------------------------------

void SpanRecorder::add(Span s) {
  std::lock_guard lock(mu_);
  spans_.push_back(std::move(s));
}

void SpanRecorder::count(std::uint64_t op, const char* name, double value) {
  add({op, name, "", ms_between(epoch_, Clock::now()), 0, value});
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

std::vector<double> SpanRecorder::durations(const std::string& name) const {
  std::lock_guard lock(mu_);
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.name == name) out.push_back(s.dur_ms);
  }
  return out;
}

std::vector<double> SpanRecorder::values(const std::string& name) const {
  std::lock_guard lock(mu_);
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.name == name) out.push_back(s.value);
  }
  return out;
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  std::lock_guard lock(mu_);
  for (const auto& s : spans_) {
    char buf[384];
    std::snprintf(buf, sizeof buf,
                  "{\"op\":%llu,\"name\":\"%s\",\"parent\":\"%s\","
                  "\"start_ms\":%.4f,\"dur_ms\":%.4f,\"value\":%.6g}\n",
                  static_cast<unsigned long long>(s.op), s.name.c_str(),
                  s.parent.c_str(), s.start_ms, s.dur_ms, s.value);
    out << buf;
  }
}

// --- server ---------------------------------------------------------------

ServedServer::ServedServer(vp::VisualPrintServer& server,
                           std::uint64_t solver_seed, SpanRecorder* recorder)
    : server_(server),
      solver_seed_(solver_seed),
      recorder_(recorder),
      pool_(worker_count()),
      listener_(0) {
  server_.store().set_pool(&pool_);
  server_.set_max_inflight(4 * pool_.thread_count());
  thread_ = std::thread([this] {
    vp::ServeOptions options;
    options.pool = &pool_;
    options.max_connections = 2 * pool_.thread_count();
    options.io_timeout_ms = 15'000;
    listener_.serve(
        [this](std::span<const std::uint8_t> request) -> vp::Bytes {
          SpanRecorder* rec = recorder_.load();
          if (rec == nullptr || request.empty()) {
            return server_.handle_request(request, solver_seed_);
          }
          // Traced phase: stamp the handler's time under the operation id
          // the client put in the query's capture_time.
          std::uint64_t op = 0;
          const char* name = "core.map_store.oracle_snapshot";
          if (request[0] == vp::kQueryRequest) {
            name = "core.server.handle";
            try {
              op = static_cast<std::uint64_t>(
                  vp::FingerprintQuery::decode(request.subspan(1))
                      .capture_time);
            } catch (const vp::DecodeError&) {
            }
          }
          return rec->timed(op, name, "net.tcp.rtt", [&] {
            return server_.handle_request(request, solver_seed_);
          });
        },
        [this] { return !stop_.load(); }, options, &stats_);
  });
}

ServedServer::~ServedServer() {
  stop_.store(true);
  thread_.join();
  server_.store().set_pool(nullptr);
}

LoadedServer load_and_serve(const std::string& db_path,
                            std::uint64_t solver_seed, int reps,
                            std::vector<double>& setup_s, SpanRecorder* rec) {
  LoadedServer ls;
  for (int rep = 0; rep < reps; ++rep) {
    ls.served.reset();
    ls.server.reset();
    const auto t0 = Clock::now();
    ls.server = std::make_unique<vp::VisualPrintServer>(
        vp::VisualPrintServer::load(db_path));
    const auto t1 = Clock::now();
    ls.served = std::make_unique<ServedServer>(*ls.server, solver_seed, rec);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    if (rec != nullptr) {
      rec->span(0, "core.server.db_load", "setup", t0, t1);
    }
  }
  return ls;
}

// --- client connection ----------------------------------------------------

vp::RetryPolicy client_retry_policy() {
  vp::RetryPolicy policy;
  policy.max_attempts = 6;
  policy.io_timeout_ms = 10'000;  // oracle downloads + clock-bounded solves
  return policy;
}

MeasuredConnection::MeasuredConnection(std::uint16_t port, std::uint64_t seed)
    : net_("127.0.0.1", port, client_retry_policy(), seed) {}

vp::Bytes MeasuredConnection::request(std::span<const std::uint8_t> payload) {
  constexpr std::size_t kFrameHeader = 4;  // u32 length prefix
  const std::uint8_t tag = payload.empty() ? 0 : payload[0];
  if (tag == vp::kQueryRequest) {
    query_requests.emplace_back(payload.begin(), payload.end());
    last_query_wire_bytes = payload.size() + kFrameHeader;
  }
  const auto t0 = Clock::now();
  vp::Bytes reply = net_.request(payload);
  if (tag == vp::kQueryRequest) {
    last_query_rtt_ms = ms_between(t0, Clock::now());
  } else if (tag == vp::kOracleRequest && !vp::is_error_frame(reply)) {
    vp::OracleDownload dl = vp::OracleDownload::decode(reply);
    last_oracle_wire_bytes = reply.size() + kFrameHeader;
    if (!dl.codebook.empty()) codebooks[{dl.place, dl.epoch}] = dl.codebook;
    downloads[dl.place] = std::move(dl);
  }
  return reply;
}

bool record_failure(Ledger& ledger, const std::exception& e) {
  if (const auto* remote = dynamic_cast<const vp::RemoteError*>(&e)) {
    if (remote->code() == vp::ErrorResponse::kOverloaded) {
      ++ledger.shed;
    } else {
      ++ledger.error_reply;
    }
    return true;
  }
  if (dynamic_cast<const vp::IoError*>(&e) != nullptr) {
    ++ledger.retry_exhausted;
    return true;
  }
  return false;
}

// --- checks ---------------------------------------------------------------

void brute_force_pq_encode(std::span<const std::uint8_t> codebook,
                           const vp::Descriptor& d, std::uint8_t* code) {
  for (std::size_t s = 0; s < vp::kPqSubspaces; ++s) {
    std::uint32_t best = UINT32_MAX;
    for (std::size_t c = 0; c < vp::kPqCentroids; ++c) {
      const std::uint8_t* cent =
          codebook.data() + (s * vp::kPqCentroids + c) * vp::kPqSubDims;
      std::uint32_t dist = 0;
      for (std::size_t j = 0; j < vp::kPqSubDims; ++j) {
        const int diff = int{d[s * vp::kPqSubDims + j]} - int{cent[j]};
        dist += static_cast<std::uint32_t>(diff * diff);
      }
      if (dist < best) {
        best = dist;
        code[s] = static_cast<std::uint8_t>(c);
      }
    }
  }
}

std::size_t expected_query_bytes(const std::string& place,
                                 std::size_t features, bool compact,
                                 bool traced) {
  // magic, version, frame id, capture time, width, height, fov, place
  // (u32 length + bytes), oracle epoch, then the v4 codebook epoch.
  const std::size_t header = 4 + 2 + 4 + 8 + 2 + 2 + 4 + 4 + place.size() + 4;
  const std::size_t trace_tail = 8 + 1;
  if (compact) {
    // Per feature: two u16 quarter-pixel coordinates + a 16-byte code.
    return header + 4 + 4 + features * (2 + 2 + 16) + trace_tail;
  }
  // Per feature: x, y, scale, orientation as f32 + 128 descriptor bytes.
  return header + 4 + features * (4 * 4 + 128) + (traced ? trace_tail : 0);
}

bool check_sent_query(const vp::Bytes& request,
                      const vp::FingerprintQuery& built,
                      const CodebookMap& codebooks) {
  if (request.empty() || request[0] != vp::kQueryRequest) {
    fail_check("sent query lacks the 'Q' tag");
  }
  const auto body = std::span<const std::uint8_t>(request).subspan(1);
  const vp::FingerprintQuery sent = vp::FingerprintQuery::decode(body);
  const bool compact = sent.compact();
  if (sent.features.size() != built.features.size()) {
    fail_check("sent query carries " + std::to_string(sent.features.size()) +
               " features, the client selected " +
               std::to_string(built.features.size()));
  }
  const std::size_t want = expected_query_bytes(
      sent.place, sent.features.size(), compact, sent.trace_id != 0);
  if (body.size() != want) {
    fail_check("query wire size " + std::to_string(body.size()) +
               " != format size " + std::to_string(want));
  }
  if (sent.place != built.place) fail_check("sent query names another place");
  if (!compact) {
    for (std::size_t i = 0; i < sent.features.size(); ++i) {
      if (sent.features[i].descriptor != built.features[i].descriptor) {
        fail_check("raw query descriptor differs from the selected feature");
      }
    }
    return false;
  }
  const auto book = codebooks.find({sent.place, sent.codebook_epoch});
  if (book == codebooks.end() || book->second.size() != vp::kPqCodebookBytes) {
    fail_check("compact query names a codebook epoch never downloaded");
  }
  const auto codebook = std::span<const std::uint8_t>(book->second);
  std::uint8_t code[vp::kPqCodeBytes];
  for (std::size_t i = 0; i < built.features.size(); ++i) {
    brute_force_pq_encode(codebook, built.features[i].descriptor, code);
    if (!std::equal(code, code + vp::kPqCodeBytes,
                    sent.codes.begin() +
                        static_cast<std::ptrdiff_t>(i * vp::kPqCodeBytes))) {
      fail_check("compact code of feature " + std::to_string(i) +
                 " differs from the nearest-centroid encoding");
    }
    const float dx = sent.features[i].keypoint.x - built.features[i].keypoint.x;
    const float dy = sent.features[i].keypoint.y - built.features[i].keypoint.y;
    if (std::abs(dx) > 0.13f || std::abs(dy) > 0.13f) {
      fail_check("compact keypoint position off by more than 1/8 pixel");
    }
  }
  return true;
}

void check_selection(const vp::UniquenessOracle& oracle,
                     std::span<const vp::Feature> all,
                     std::span<const vp::Feature> selected,
                     std::size_t top_k) {
  const std::size_t want = std::min(top_k, all.size());
  if (selected.size() != want) {
    fail_check("client sent " + std::to_string(selected.size()) +
               " keypoints, expected min(top_k, keypoints) = " +
               std::to_string(want));
  }
  std::vector<bool> used(all.size(), false);
  std::uint32_t worst_sent = 0;
  for (const auto& f : selected) {
    std::size_t hit = all.size();
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (!used[i] && all[i].descriptor == f.descriptor &&
          all[i].keypoint.x == f.keypoint.x &&
          all[i].keypoint.y == f.keypoint.y) {
        hit = i;
        break;
      }
    }
    if (hit == all.size()) {
      fail_check("sent keypoint is not one of the frame's");
    }
    used[hit] = true;
    worst_sent = std::max(worst_sent, oracle.count(f.descriptor));
  }
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (!used[i] && oracle.count(all[i].descriptor) < worst_sent) {
      fail_check("an unsent keypoint is strictly more unique than a sent one");
    }
  }
}

void check_download(const vp::VisualPrintClient& phone,
                    const vp::OracleDownload& download,
                    const vp::PlaceShard& shard,
                    std::span<const vp::Descriptor> probes) {
  if (download.epoch != shard.epoch || download.place != shard.place) {
    fail_check("download is not of the shard it is checked against");
  }
  if (phone.oracle() == nullptr || phone.oracle_place() != shard.place ||
      phone.oracle_epoch() != shard.epoch) {
    fail_check("installed oracle is not the downloaded one");
  }
  for (const auto& d : probes) {
    if (phone.oracle()->count(d) != shard.oracle.count(d)) {
      fail_check("installed oracle counts differ from the server's on " +
                 shard.place);
    }
  }
  const auto raw = shard.index.pq_codebook().raw();
  if (!std::equal(download.codebook.begin(), download.codebook.end(),
                  raw.begin(), raw.end())) {
    fail_check("downloaded codebook differs from the shard's on " +
               shard.place);
  }
}

double check_fix(const vp::LocationResponse& resp, const vp::Vec3& truth,
                 const vp::ServerConfig& shard) {
  constexpr double kTolerance = 0.5;  // meters outside the search box
  const vp::Vec3& p = resp.position;
  const vp::Vec3& lo = shard.localize.search_lo;
  const vp::Vec3& hi = shard.localize.search_hi;
  const bool inside = std::isfinite(p.x) && std::isfinite(p.y) &&
                      std::isfinite(p.z) && p.x >= lo.x - kTolerance &&
                      p.x <= hi.x + kTolerance && p.y >= lo.y - kTolerance &&
                      p.y <= hi.y + kTolerance && p.z >= lo.z - kTolerance &&
                      p.z <= hi.z + kTolerance;
  if (!inside) fail_check("fix outside the shard's search box");
  return p.distance(truth);
}

void check_accuracy(const VenueErrors& errors, double bound_m,
                    const std::string& what) {
  std::vector<double> checked;
  std::string line = what + " accuracy:";
  for (const auto& [venue, e] : errors) {
    char buf[96];
    std::snprintf(buf, sizeof buf, " %s median %.2f m over %zu fixes;",
                  venue.c_str(), median(e), e.size());
    line += buf;
    if (venue != "grocery") checked.insert(checked.end(), e.begin(), e.end());
  }
  std::printf("%s\n", line.c_str());
  if (checked.empty()) fail_check(what + ": no fixes to check");
  const double m = median(checked);
  if (m > bound_m) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s: median error %.2f m > bound %.2f m",
                  what.c_str(), m, bound_m);
    fail_check(buf);
  }
}

}  // namespace vpb
