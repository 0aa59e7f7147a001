// vpbench: the end-to-end benchmark of VisualPrint.
//
//   vpbench --workload walk_fix|venue_load|venue_arrivals --seed N
//           --seconds S --trace 0|1 [--cache-dir DIR] [--out-dir DIR]
//
// Prints the failure ledger, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones.
// A failed correctness check prints the cause on stderr and exits 2.
#include <cstdio>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: vpbench --workload walk_fix|venue_load|venue_arrivals "
               "--seed N --seconds S --trace 0|1 [--cache-dir DIR] "
               "[--out-dir DIR]\n");
}

std::string json_result(const vpb::RunOutput& out) {
  std::string s = "{\"correct\": true, \"attempted\": " +
                  std::to_string(out.attempted) +
                  ", \"failed\": " + std::to_string(out.failed) +
                  ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& m = out.metrics[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    s += buf;
  }
  return s + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  vpb::Args args;
  bool have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
      have_seconds = true;
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--cache-dir") {
      args.cache_dir = value;
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else {
      usage();
      return 64;
    }
  }
  if (args.workload.empty() || !have_seconds || args.seconds <= 0) {
    usage();
    return 64;
  }
  try {
    std::filesystem::create_directories(args.out_dir);
    vpb::RunOutput out;
    if (args.workload == "walk_fix") {
      out = vpb::run_walk_fix(args);
    } else if (args.workload == "venue_load") {
      out = vpb::run_venue_load(args);
    } else if (args.workload == "venue_arrivals") {
      out = vpb::run_venue_arrivals(args);
    } else {
      usage();
      return 64;
    }
    if (out.attempted == 0) {
      std::fprintf(stderr, "no operation was attempted\n");
      return 3;
    }
    std::printf("%s\n", json_result(out).c_str());
    std::fflush(stdout);
    return 0;
  } catch (const vpb::CheckFailed& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

namespace vpb {

double overhead_pct(double untraced, double traced) {
  return untraced > 0 ? (traced / untraced - 1.0) * 100.0 : 0.0;
}

}  // namespace vpb
