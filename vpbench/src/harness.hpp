// Shared pieces of the end-to-end benchmark: the in-process server behind
// real TCP loopback, the client transport that measures what crosses the
// connection, the failure ledger, the span recorder of the traced run, and
// the correctness checks that every workload applies to the program's
// outputs.
#pragma once
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/client.hpp"
#include "core/remote.hpp"
#include "core/server.hpp"
#include "net/retry.hpp"
#include "net/tcp.hpp"
#include "util/thread_pool.hpp"

namespace vpb {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Thrown when a program output fails a correctness check; main() reports
/// it and exits non-zero without printing a result.
struct CheckFailed : std::runtime_error {
  using std::runtime_error::runtime_error;
};
[[noreturn]] void fail_check(const std::string& what);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string cache_dir = ".bench_build/cache";
  std::string out_dir = ".bench_build/out";
};

/// Client load threads and server workers: the host's core count, capped so
/// no workload drives more connections than the four the workloads name.
std::size_t worker_count();
std::size_t client_connections();

/// Run fn(0..n-1) on n threads. If any throws, `stop` (when given) turns
/// true so the others wind down, and the first exception is rethrown here
/// once every thread has joined.
void run_parallel(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::atomic<bool>* stop = nullptr);

double median(std::vector<double> v);
double mean(const std::vector<double>& v);
/// "[a b c]" with three decimals, for the run log.
std::string list(const std::vector<double>& v);
double percentile(std::vector<double> v, double p);

/// One metric of the final JSON line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Operations attempted and failed, by cause. `no_fix` and `blur_rejected`
/// are outcomes, not failures: a no-fix reply is the program's answer for
/// a view its map cannot place, and a blur-rejected frame is work done.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t fixes = 0;
  std::uint64_t no_fix = 0;
  std::uint64_t blur_rejected = 0;
  std::uint64_t error_reply = 0;      ///< structured error other than shed
  std::uint64_t retry_exhausted = 0;  ///< transport gave up (timeouts/drops)
  std::uint64_t shed = 0;             ///< kOverloaded after every retry
  std::uint64_t wrong_venue = 0;      ///< fan-out reply naming another venue
  std::uint64_t failed() const {
    return error_reply + retry_exhausted + shed + wrong_venue;
  }
  void add(const Ledger& o);
  std::string to_line(const std::string& workload, const char* phase) const;
};

/// One span of the traced run: a timed call into a layer, tagged with the
/// operation that caused it.
struct Span {
  std::uint64_t op = 0;
  std::string name;
  std::string parent;
  double start_ms = 0;  ///< since the recorder's epoch
  double dur_ms = 0;
  double value = 0;     ///< a count or size recorded at the same boundary
};

/// In-memory span store; written out once, when the run ends.
class SpanRecorder {
 public:
  void add(Span s);
  /// A span from two instants.
  void span(std::uint64_t op, const char* name, const char* parent,
            Clock::time_point t0, Clock::time_point t1) {
    add({op, name, parent, ms_between(epoch_, t0), ms_between(t0, t1), 0});
  }
  /// A span whose duration was measured elsewhere.
  void span_ms(std::uint64_t op, const char* name, const char* parent,
               double dur_ms) {
    add({op, name, parent, ms_between(epoch_, Clock::now()), dur_ms, 0});
  }
  /// Time `fn` and record it as a span; returns fn's result.
  template <typename Fn>
  auto timed(std::uint64_t op, const char* name, const char* parent, Fn&& fn) {
    const auto t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      span(op, name, parent, t0, Clock::now());
    } else {
      auto r = fn();
      span(op, name, parent, t0, Clock::now());
      return r;
    }
  }
  /// A count or size recorded at a layer boundary.
  void count(std::uint64_t op, const char* name, double value);
  std::vector<Span> spans() const;
  /// Durations (or values, for counts) of every span with this name.
  std::vector<double> durations(const std::string& name) const;
  std::vector<double> values(const std::string& name) const;
  void write_jsonl(const std::string& path) const;
  Clock::time_point epoch() const { return epoch_; }

 private:
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// A VisualPrintServer served over TCP loopback on a pool of worker_count()
/// workers with vp_server's defaults: admission cap 4x workers, 2x workers
/// concurrent connections, 15 s socket deadlines. With a recorder, the
/// serve handler stamps each request's handler time as a span keyed by the
/// query's capture_time (the benchmark's operation id).
class ServedServer {
 public:
  ServedServer(vp::VisualPrintServer& server, std::uint64_t solver_seed,
               SpanRecorder* recorder = nullptr);
  ~ServedServer();
  ServedServer(const ServedServer&) = delete;
  ServedServer& operator=(const ServedServer&) = delete;

  std::uint16_t port() const { return listener_.port(); }
  const vp::ServeStats& stats() const { return stats_; }
  /// Switch handler stamping on or off (between measurement phases).
  void set_recorder(SpanRecorder* r) { recorder_.store(r); }

 private:
  vp::VisualPrintServer& server_;
  std::uint64_t solver_seed_;
  std::atomic<SpanRecorder*> recorder_;
  vp::ThreadPool pool_;
  vp::TcpListener listener_;
  vp::ServeStats stats_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// A database loaded from disk and served. Members are destroyed in
/// reverse order: serving stops before the server goes away.
struct LoadedServer {
  std::unique_ptr<vp::VisualPrintServer> server;
  std::unique_ptr<ServedServer> served;
};

/// Set-up of the loaded-database workloads, `reps` times over: load the
/// saved database and start serving it. Returns the last set-up, appends
/// each set-up's seconds to `setup_s`, and records the loads' time as
/// core.server.db_load spans.
LoadedServer load_and_serve(const std::string& db_path,
                            std::uint64_t solver_seed, int reps,
                            std::vector<double>& setup_s, SpanRecorder* rec);

/// vp_client's retry policy.
vp::RetryPolicy client_retry_policy();

/// PQ codebooks by (place, epoch): what a compact query's codes must be
/// checked against.
using CodebookMap = std::map<std::pair<std::string, std::uint32_t>, vp::Bytes>;

/// A client connection that measures every exchange: request and reply
/// bytes on the wire (4-byte frame header included), the round trip, and
/// the last query and oracle replies seen, so checks can inspect exactly
/// what crossed the connection. One per client thread.
class MeasuredConnection {
 public:
  MeasuredConnection(std::uint16_t port, std::uint64_t seed);
  vp::Bytes request(std::span<const std::uint8_t> payload);
  vp::RemoteLocalizer::Transport transport() {
    return [this](std::span<const std::uint8_t> req) { return request(req); };
  }
  const vp::RetryStats& retry_stats() const { return net_.stats(); }

  // Most recent exchange of each kind.
  std::vector<vp::Bytes> query_requests;  ///< every 'Q' request since clear
  double last_query_rtt_ms = 0;
  std::size_t last_query_wire_bytes = 0;
  std::map<std::string, vp::OracleDownload> downloads;  ///< latest per place
  CodebookMap codebooks;  ///< every codebook downloaded, by (place, epoch)
  std::size_t last_oracle_wire_bytes = 0;
  void clear_queries() { query_requests.clear(); }

 private:
  vp::RetryingClient net_;
};

/// Classify an exception from a query exchange into the ledger. Returns
/// false for exceptions that are not transport outcomes (rethrow those).
bool record_failure(Ledger& ledger, const std::exception& e);

// --- correctness checks (independent of the code under test) -----------

/// Squared-L2 nearest centroid per subspace, lowest index on ties, against
/// a raw kPqCodebookBytes centroid table.
void brute_force_pq_encode(std::span<const std::uint8_t> codebook,
                           const vp::Descriptor& d, std::uint8_t* code);

/// Wire size of a fingerprint query from the format's field list.
std::size_t expected_query_bytes(const std::string& place,
                                 std::size_t features, bool compact,
                                 bool traced);

/// The query a client sent, decoded, must carry the features it selected:
/// same count, codes (when compact) equal to the brute-force encoding
/// against the codebook of the epoch the query names, and a size equal to
/// the format's. Returns whether it went out compact.
bool check_sent_query(const vp::Bytes& request,
                      const vp::FingerprintQuery& built,
                      const CodebookMap& codebooks);

/// Selection property of the uniqueness filter: exactly min(top_k, all)
/// features are sent, each one of the frame's keypoints, and no unsent
/// keypoint has a strictly lower oracle count than a sent one.
void check_selection(const vp::UniquenessOracle& oracle,
                     std::span<const vp::Feature> all,
                     std::span<const vp::Feature> selected, std::size_t top_k);

/// A downloaded oracle after install must count like the shard's own
/// oracle, and its codebook must be the shard's.
void check_download(const vp::VisualPrintClient& phone,
                    const vp::OracleDownload& download,
                    const vp::PlaceShard& shard,
                    std::span<const vp::Descriptor> probes);

/// A fix must lie in the answering shard's search box (with a small
/// tolerance); returns its 3-D distance from the true camera.
double check_fix(const vp::LocationResponse& resp, const vp::Vec3& truth,
                 const vp::ServerConfig& shard);

/// Fix errors of a run by venue. Prints each venue's median and checks
/// the median over the office and cafeteria fixes against `bound_m`. The
/// grocery's fixes are held to the per-fix check only: its median is far
/// off today (see the benchmark's README).
using VenueErrors = std::map<std::string, std::vector<double>>;
void check_accuracy(const VenueErrors& errors, double bound_m,
                    const std::string& what);

/// Result of one workload run.
struct RunOutput {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

}  // namespace vpb
