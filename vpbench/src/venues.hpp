// The benchmark's venues: three wardriven places (office, cafeteria,
// grocery) built from fixed seeds, plus a second, sparser wardrive pass of
// the cafeteria that venue_arrivals re-publishes mid-run.
//
// Venues do not depend on the run's seed: they stand for the maps a
// deployment already holds, while the seed draws the traffic (views, blur,
// query mix, arrival order). Building them (rendering every wardrive
// snapshot, ICP-merging the depth clouds, extracting keypoint-to-3D
// mappings) costs about 20 s on four cores, so the result is cached in the
// checkout under a key of the benchmark binary: any change to the program
// rebuilds them.
#pragma once
#include <map>
#include <string>
#include <vector>

#include "core/server.hpp"
#include "imaging/image.hpp"
#include "scene/world.hpp"
#include "slam/mapping.hpp"

namespace vpb {

inline constexpr const char* kVenueNames[] = {"office", "cafeteria", "grocery"};
inline constexpr const char* kRepublishedVenue = "cafeteria";

struct Venue {
  std::string place;
  vp::World world;
  /// Set up as `vp_server --pq` sets up its demo venue: PQ storage, oracle
  /// capacity sized to the wardrive, search bounds from the world, every
  /// other field at its default.
  vp::ServerConfig config;
  std::vector<vp::KeypointMapping> mappings;
};

struct VenueSet {
  std::vector<Venue> venues;  ///< in kVenueNames order
  std::vector<vp::KeypointMapping> extension;  ///< cafeteria re-publish
  std::string db_path;  ///< all three venues, saved as a v4 database
  /// Each place's oracle+codebook as the saved database serves it.
  std::map<std::string, vp::OracleDownload> downloads;

  const Venue& venue(const std::string& place) const;
};

/// One rendered phone view of a venue with the renderer's ground truth.
struct View {
  std::string place;
  vp::ImageF image;
  vp::Vec3 truth;        ///< true camera position
  bool blurred = false;  ///< rendered with motion blur and low sensor noise
  /// The frame's SIFT features (default SiftConfig), when requested: the
  /// set the client's selection must be drawn from.
  std::vector<vp::Feature> features;
};

/// `n` 920x540 views of the venue's unique content (posters, boards,
/// signs), 1.8-2.8 m away and up to 25 degrees off-axis, drawn from
/// `seed`. Every `blur_every`-th view (0 = none) is a motion-blurred frame,
/// which the client's blur gate rejects unless enough texture survives.
/// Rendered (and, with `extract`, SIFT-extracted) on worker_count() threads;
/// the output does not depend on the thread count.
std::vector<View> render_views(const Venue& venue, std::size_t n,
                               std::uint64_t seed, std::size_t blur_every,
                               bool extract);

/// Whole-file read, and a write that goes through a temporary name so an
/// interrupted run never leaves a truncated cache entry behind.
vp::Bytes read_file(const std::string& path);
void write_file(const std::string& path, std::span<const std::uint8_t> data);

/// Build or load the venues. `with_db` also makes sure the saved database
/// and its oracle downloads exist.
VenueSet load_venues(const std::string& cache_dir, bool with_db);

}  // namespace vpb
