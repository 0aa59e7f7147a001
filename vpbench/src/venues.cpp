#include "venues.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "harness.hpp"
#include "scene/environments.hpp"
#include "scene/render.hpp"
#include "slam/map_merge.hpp"
#include "slam/wardrive.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace vpb {
namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kCacheMagic = 0x56504231;  // "VPB1"

vp::World build_world(const std::string& place) {
  // Room sizes of the repository's Fig. 19 experiment.
  if (place == "office") {
    vp::Rng rng(101);
    return vp::build_office(
        {.width = 36, .depth = 14, .height = 3, .num_scenes = 8}, rng);
  }
  if (place == "cafeteria") {
    vp::Rng rng(201);
    return vp::build_cafeteria(
        {.width = 36, .depth = 12, .height = 3, .num_scenes = 8}, rng);
  }
  vp::Rng rng(301);
  return vp::build_grocery(
      {.width = 40, .depth = 20, .height = 3.5, .num_scenes = 6}, rng);
}

vp::WardriveConfig wardrive_config() {
  vp::WardriveConfig cfg;
  cfg.intrinsics = {320, 240, 1.15192};
  cfg.stop_spacing = 2.2;
  cfg.lane_spacing = 3.5;
  cfg.views_per_stop = 2;
  return cfg;
}

std::vector<vp::KeypointMapping> wardrive_mappings(
    const vp::World& world, const vp::WardriveConfig& cfg,
    std::uint64_t seed) {
  vp::Rng rng(seed);
  const auto snaps = vp::wardrive(world, cfg, rng);
  const auto merged = vp::merge_snapshots(snaps, {});
  return vp::extract_mappings(snaps, merged.corrected_poses);
}

vp::ServerConfig venue_config(const Venue& v) {
  vp::ServerConfig cfg;
  cfg.index.pq.enabled = true;
  cfg.oracle.capacity =
      std::max<std::size_t>(50'000, v.mappings.size() * 2);
  v.world.bounds(cfg.localize.search_lo, cfg.localize.search_hi);
  cfg.place_label = v.place;
  return cfg;
}

void write_mappings(vp::ByteWriter& w,
                    const std::vector<vp::KeypointMapping>& ms) {
  w.u32(static_cast<std::uint32_t>(ms.size()));
  for (const auto& m : ms) {
    const auto& k = m.feature.keypoint;
    w.f32(k.x);
    w.f32(k.y);
    w.f32(k.scale);
    w.f32(k.orientation);
    w.f32(k.response);
    w.u16(static_cast<std::uint16_t>(k.octave));
    w.raw(m.feature.descriptor);
    w.f64(m.world_position.x);
    w.f64(m.world_position.y);
    w.f64(m.world_position.z);
    w.u32(m.snapshot);
  }
}

std::vector<vp::KeypointMapping> read_mappings(vp::ByteReader& r) {
  std::vector<vp::KeypointMapping> ms(r.u32());
  for (auto& m : ms) {
    auto& k = m.feature.keypoint;
    k.x = r.f32();
    k.y = r.f32();
    k.scale = r.f32();
    k.orientation = r.f32();
    k.response = r.f32();
    k.octave = static_cast<std::int16_t>(r.u16());
    const auto d = r.raw(vp::kDescriptorDims);
    std::copy(d.begin(), d.end(), m.feature.descriptor.begin());
    m.world_position.x = r.f64();
    m.world_position.y = r.f64();
    m.world_position.z = r.f64();
    m.snapshot = r.u32();
  }
  return ms;
}

void build_mappings(VenueSet& set) {
  std::vector<std::thread> threads;
  for (auto& v : set.venues) {
    threads.emplace_back([&v] {
      const std::uint64_t seed =
          v.place == "office" ? 102 : v.place == "cafeteria" ? 202 : 302;
      v.mappings = wardrive_mappings(v.world, wardrive_config(), seed);
    });
  }
  threads.emplace_back([&set] {
    // A later, sparser pass over the cafeteria from other stops.
    vp::WardriveConfig cfg = wardrive_config();
    cfg.stop_spacing = 3.1;
    cfg.margin = 2.2;
    cfg.views_per_stop = 1;
    set.extension = wardrive_mappings(set.venues[1].world, cfg, 203);
  });
  for (auto& t : threads) t.join();
}

void build_database(VenueSet& set, const std::string& cache_dir) {
  vp::VisualPrintServer server(set.venues[0].config);
  for (const auto& v : set.venues) {
    server.ingest_wardrive(v.place, v.mappings, &v.config);
  }
  server.save(set.db_path + ".tmp");
  fs::rename(set.db_path + ".tmp", set.db_path);
  std::vector<std::thread> threads;
  std::vector<vp::OracleDownload> dls(set.venues.size());
  for (std::size_t i = 0; i < set.venues.size(); ++i) {
    threads.emplace_back([&, i] {
      dls[i] = server.oracle_snapshot(set.venues[i].place);
    });
  }
  for (auto& t : threads) t.join();
  for (auto& dl : dls) {
    write_file(cache_dir + "/oracle-" + dl.place + ".bin", dl.encode());
  }
}

}  // namespace

vp::Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return vp::Bytes((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, std::span<const std::uint8_t> data) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
    if (!out) throw vp::IoError("cannot write " + tmp);
  }
  fs::rename(tmp, path);
}

std::vector<View> render_views(const Venue& venue, std::size_t n,
                               std::uint64_t seed, std::size_t blur_every,
                               bool extract) {
  const auto quads = vp::scene_quads(venue.world);
  const vp::CameraIntrinsics intrinsics{920, 540, 1.15192};
  std::uint64_t place_key = 0;
  for (const char ch : venue.place) place_key = place_key * 131 + ch;
  std::vector<View> views(n);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      View& v = views[i];
      vp::Rng rng(seed * 0x9E3779B97F4A7C15ULL + place_key + i);
      const std::size_t quad = quads[rng.uniform_u64(quads.size())];
      const vp::Camera cam = vp::view_of_quad(
          venue.world, quad, intrinsics, rng.uniform(-25, 25),
          rng.uniform(1.8, 2.8), rng);
      vp::RenderOptions opts;
      v.blurred = blur_every != 0 && i % blur_every == blur_every - 1;
      if (v.blurred) {
        // A phone swung mid-capture: a long streak, and the low sensor
        // noise of a well-lit scene (noise alone keeps the variance of
        // the Laplacian above the gate's threshold).
        const double a = rng.uniform(0, 6.283185307179586);
        opts.motion_blur_px = 40;
        opts.motion_dir = {std::cos(a), std::sin(a)};
        opts.noise_stddev = 0.5;
      }
      v.place = venue.place;
      v.truth = cam.pose.translation;
      v.image = vp::render(venue.world, cam, opts, rng).image;
      if (extract) v.features = vp::sift_detect(v.image, {});
    }
  };
  run_parallel(worker_count(), [&](std::size_t) { work(); });
  return views;
}

const Venue& VenueSet::venue(const std::string& place) const {
  for (const auto& v : venues) {
    if (v.place == place) return v;
  }
  throw vp::InvalidArgument("unknown venue " + place);
}

VenueSet load_venues(const std::string& cache_dir, bool with_db) {
  fs::create_directories(cache_dir);
  VenueSet set;
  for (const char* name : kVenueNames) {
    Venue v;
    v.place = name;
    v.world = build_world(name);
    set.venues.push_back(std::move(v));
  }

  const std::string mappings_path = cache_dir + "/venues.bin";
  bool cached = false;
  if (fs::exists(mappings_path)) {
    const vp::Bytes blob = read_file(mappings_path);
    vp::ByteReader r(blob);
    if (r.u32() == kCacheMagic) {
      for (auto& v : set.venues) v.mappings = read_mappings(r);
      set.extension = read_mappings(r);
      cached = true;
    }
  }
  if (!cached) {
    std::fprintf(stderr, "building venues (wardrive + ICP merge)...\n");
    build_mappings(set);
    vp::ByteWriter w;
    w.u32(kCacheMagic);
    for (const auto& v : set.venues) write_mappings(w, v.mappings);
    write_mappings(w, set.extension);
    write_file(mappings_path, w.bytes());
  }
  for (auto& v : set.venues) v.config = venue_config(v);

  set.db_path = cache_dir + "/venues.db";
  if (!with_db) return set;
  const auto oracle_path = [&](const char* place) {
    return cache_dir + "/oracle-" + place + ".bin";
  };
  bool have_db = fs::exists(set.db_path);
  for (const char* name : kVenueNames) {
    have_db = have_db && fs::exists(oracle_path(name));
  }
  if (!have_db) {
    std::fprintf(stderr, "saving the venue database...\n");
    build_database(set, cache_dir);
  }
  for (const char* name : kVenueNames) {
    set.downloads[name] =
        vp::OracleDownload::decode(read_file(oracle_path(name)));
  }
  return set;
}

}  // namespace vpb
