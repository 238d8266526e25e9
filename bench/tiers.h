// Named benchmark size tiers — the one registry every bench binary
// sizes itself from.
//
// A tier maps a name (`fresh`/`small`/`medium`/`large`) to the full
// set of size knobs the wired benches consume: the (d, g) grid for the
// routing/simulator sweeps, the edge-coloring (n, Delta) grid, the
// h-relation h values, the traffic-server serve grid and soak length,
// and the sampling trial counts. Benches never hardcode sizes; they
// read `tier()` (set once at startup from the POPS_BENCH_TIER env var
// or the --tier= flag, both handled in bench_common.h) so the same
// binaries scale from toy smoke runs to production-shaped sweeps, and
// `BENCH_<tier>.json` snapshots are comparable run over run because a
// tier name pins the workload exactly.
//
// Tier intents:
//   fresh  — toy sizes; the default, so ctest/smoke and the hermetic
//            shim CI job stay fast. Everything routes in-process in
//            well under a second.
//   small  — the PR regression gate (scripts/bench_diff.py against the
//            committed BENCH_small.json); sized like the historical
//            hardcoded bench grids so the trajectory is continuous.
//   medium — the weekly drift-watch leg; multi-thousand-processor
//            topologies and a production-shaped soak.
//   large  — manual-dispatch only; the biggest shapes the simulator
//            holds comfortably in memory (n = 16K processors).
//
// This header is benchmark-library-free on purpose: tests
// (tests/test_tiers.cc) include it to assert every tier is valid for
// Topology without pulling in google-benchmark or the shim.
#pragma once

#include <string>
#include <vector>

#include "support/check.h"

namespace pops::bench {

/// One POPS(d, g) topology point of a tier's sweep.
struct GridPoint {
  int d;
  int g;
};

/// One (n, Delta) point of the edge-coloring ablation sweep.
struct ColoringPoint {
  int n;
  int degree;
};

/// One traffic-server operating point: topology plus the window
/// degree cap the server closes h-relation windows at.
struct ServePoint {
  int d;
  int g;
  int window_degree;
};

struct TierSpec {
  std::string name;
  std::string description;

  /// Main (d, g) sweep: routing engine, direct router, simulator
  /// execute, lower bounds, h-relation. Ordered small to large.
  std::vector<GridPoint> grid;

  /// Values crossed d x g for the exhaustive Theorem 2 table (E1).
  std::vector<int> table_axis;

  /// Edge-coloring ablation (n, Delta) sweep (E4). The last point has
  /// an odd Delta, so euler-split's matching peel is timed too.
  std::vector<ColoringPoint> coloring_grid;

  /// h values for h-relation routing (E10).
  std::vector<int> h_values;

  /// Traffic-server operating points (E11 and the BM_Serve* benches).
  std::vector<ServePoint> serve_grid;

  /// Windows per E11a table row.
  int serve_table_windows;

  /// Windows for the E11b steady-state soak (still overridable with
  /// POPS_TRAFFIC_SOAK_WINDOWS, which CI's sanitizer legs shorten).
  long long soak_windows;

  /// TrafficServer per-window demand cap.
  int max_window_demands;

  /// Trial count for sampling tables (e.g. the one-slot routable
  /// fraction, E7b).
  int random_trials;

  /// Worker counts for the BatchRouter throughput axis
  /// (BM_BatchRoute); each value registers one benchmark variant.
  std::vector<int> batch_threads;

  /// Permutations per route_batch call in BM_BatchRoute.
  int batch_perms;
};

inline const std::vector<TierSpec>& all_tiers() {
  static const std::vector<TierSpec> tiers = {
      {
          "fresh",
          "toy sizes, sub-second; default for ctest/CI smoke",
          /*grid=*/{{1, 4}, {2, 2}, {4, 4}, {8, 4}},
          /*table_axis=*/{1, 2, 4},
          /*coloring_grid=*/{{16, 2}, {32, 4}, {16, 3}},
          /*h_values=*/{1, 2},
          /*serve_grid=*/{{2, 2, 2}, {4, 4, 4}},
          /*serve_table_windows=*/60,
          /*soak_windows=*/400,
          /*max_window_demands=*/64,
          /*random_trials=*/50,
          /*batch_threads=*/{1, 2},
          /*batch_perms=*/64,
      },
      {
          "small",
          "PR regression gate; matches the historical bench grids",
          /*grid=*/{{4, 4}, {16, 16}, {64, 8}, {8, 64}, {32, 32}},
          /*table_axis=*/{1, 2, 4, 8, 16, 32},
          /*coloring_grid=*/{{64, 8}, {256, 16}, {32, 31}},
          /*h_values=*/{2, 4, 8},
          /*serve_grid=*/{{4, 4, 4}, {8, 4, 4}, {16, 8, 8}},
          /*serve_table_windows=*/500,
          /*soak_windows=*/3000,
          /*max_window_demands=*/256,
          /*random_trials=*/500,
          /*batch_threads=*/{1, 2, 4, 8},
          /*batch_perms=*/256,
      },
      {
          "medium",
          "weekly drift watch; thousands of processors",
          /*grid=*/{{16, 16}, {32, 32}, {64, 64}, {128, 32}, {32, 128}},
          /*table_axis=*/{1, 4, 16, 64},
          /*coloring_grid=*/{{256, 16}, {1024, 32}, {256, 15}},
          /*h_values=*/{4, 8, 16},
          /*serve_grid=*/{{16, 8, 8}, {32, 16, 8}, {64, 16, 16}},
          /*serve_table_windows=*/1000,
          /*soak_windows=*/12000,
          /*max_window_demands=*/512,
          /*random_trials=*/1000,
          /*batch_threads=*/{1, 2, 4, 8, 16},
          /*batch_perms=*/512,
      },
      {
          "large",
          "manual dispatch; production-scale shapes (n = 16K)",
          /*grid=*/{{32, 32}, {64, 64}, {128, 128}, {256, 64}, {64, 256}},
          /*table_axis=*/{1, 8, 32, 128},
          /*coloring_grid=*/{{1024, 32}, {4096, 64}, {1024, 63}},
          /*h_values=*/{8, 16, 32},
          /*serve_grid=*/{{64, 16, 16}, {128, 32, 16}, {128, 64, 32}},
          /*serve_table_windows=*/2000,
          /*soak_windows=*/50000,
          /*max_window_demands=*/1024,
          /*random_trials=*/2000,
          /*batch_threads=*/{1, 4, 8, 16, 32},
          /*batch_perms=*/1024,
      },
  };
  return tiers;
}

inline const TierSpec& tier_by_name(const std::string& name) {
  for (const TierSpec& spec : all_tiers()) {
    if (spec.name == name) return spec;
  }
  POPS_CHECK(false, "unknown bench tier '" + name +
                        "' (known tiers: fresh, small, medium, large)");
  return all_tiers().front();  // unreachable
}

namespace internal {
inline const TierSpec*& current_tier_slot() {
  static const TierSpec* current = &tier_by_name("fresh");
  return current;
}
}  // namespace internal

/// The active tier. Defaults to `fresh` until set_tier() runs, so a
/// bench binary invoked with no flag and no env var stays toy-sized.
inline const TierSpec& tier() { return *internal::current_tier_slot(); }

/// Selects the active tier; aborts (POPS_CHECK) on an unknown name so
/// a typo in POPS_BENCH_TIER can never silently run the wrong sizes.
inline void set_tier(const std::string& name) {
  internal::current_tier_slot() = &tier_by_name(name);
}

}  // namespace pops::bench
