// The counter table (common/counters.hpp) is the single declaration of every
// plane counter; these tests pin that each entry reaches every generated
// surface — RunResult, run_fingerprint, both sweep CSVs, summary.json — that
// folds honour each entry's agg, and that docs/counters.md is the rendered
// table.
#include "common/counters.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sweep/report.hpp"
#include "workload/cli.hpp"
#include "workload/engine.hpp"
#include "workload/scenario.hpp"

namespace aria {
namespace {

using counters::Agg;
using counters::kCount;
using counters::kTable;
using workload::RunResult;

/// A RunResult whose table counters are all zero except entry `k`.
RunResult only(std::size_t k, std::uint64_t value) {
  RunResult r;
  std::size_t i = 0;
  workload::for_each_counter(r, [&](const counters::Counter&,
                                    std::uint64_t& v) {
    if (i++ == k) v = value;
  });
  return r;
}

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> cells;
  std::stringstream ss{line};
  std::string cell;
  while (std::getline(ss, cell, ',')) cells.push_back(cell);
  return cells;
}

/// Header and first data row of a CSV rendering.
std::pair<std::vector<std::string>, std::vector<std::string>> csv_head(
    const std::string& csv) {
  std::istringstream in{csv};
  std::string header, row;
  std::getline(in, header);
  std::getline(in, row);
  return {split_csv(header), split_csv(row)};
}

std::string cell(const std::pair<std::vector<std::string>,
                                 std::vector<std::string>>& csv,
                 std::string_view column) {
  const auto& [header, row] = csv;
  const auto it = std::find(header.begin(), header.end(), column);
  if (it == header.end() || row.size() != header.size()) return "<missing>";
  return row[static_cast<std::size_t>(it - header.begin())];
}

std::string quoted(std::string_view text) {
  std::string out{"\""};
  out += text;
  out += '"';
  return out;
}

TEST(CounterTable, NamesAreUniqueAcrossAllLists) {
  std::set<std::string_view> names;
  for (const counters::Counter& c : kTable) {
    EXPECT_TRUE(names.insert(c.name).second) << "duplicate: " << c.name;
  }
  EXPECT_EQ(names.size(), kCount);
}

TEST(CounterTable, SummaryJsonHasOneObjectPerPlane) {
  // A plane's entries may span owner lists (fault entries sit in the fault,
  // network and engine lists); summary.json still gives each plane one
  // object holding exactly its entries.
  sweep::RunSpec spec;
  spec.label = "row";
  spec.config.name = "table";
  std::ostringstream out;
  sweep::SweepReport::build({spec}, {RunResult{}}).write_json(out);
  const std::string json = out.str();
  std::set<std::string_view> planes;
  for (const counters::Counter& c : kTable) planes.insert(c.plane);
  for (const std::string_view plane : planes) {
    const std::string key = quoted(plane) + ":{";
    const auto at = json.find(key);
    ASSERT_NE(at, std::string::npos) << plane;
    EXPECT_EQ(json.find(key, at + 1), std::string::npos) << plane;
    const std::string object = json.substr(at, json.find('}', at) - at);
    std::ptrdiff_t entries = 0;
    for (const counters::Counter& c : kTable) {
      if (c.plane != plane) continue;
      ++entries;
      EXPECT_NE(object.find(quoted(c.name) + ":0"), std::string::npos)
          << c.name;
    }
    // One ':' after the plane key, then one per entry.
    EXPECT_EQ(std::count(object.begin(), object.end(), ':'), 1 + entries)
        << plane;
  }
}

TEST(CounterTable, EveryEntryReachesFingerprintCsvAndJson) {
  sweep::RunSpec spec;
  spec.label = "row";
  spec.config.name = "table";
  for (std::size_t k = 0; k < kCount; ++k) {
    const std::string name{kTable[k].name};
    const std::uint64_t value = 1000003 + k;
    const RunResult r = only(k, value);
    EXPECT_EQ(workload::counter_values(r)[k], value) << name;

    EXPECT_NE(workload::run_fingerprint(r).find(
                  "\ncounter " + name + " " + std::to_string(value) + "\n"),
              std::string::npos)
        << name;

    const sweep::SweepReport report = sweep::SweepReport::build({spec}, {r});
    std::ostringstream runs, summary, json;
    report.write_runs_csv(runs);
    report.write_summary_csv(summary);
    report.write_json(json);
    EXPECT_EQ(cell(csv_head(runs.str()), name), std::to_string(value)) << name;
    EXPECT_EQ(cell(csv_head(summary.str()), name), std::to_string(value))
        << name;
    const std::string plane = "\"" + std::string{kTable[k].plane} + "\":{";
    const auto at = json.str().find(plane);
    ASSERT_NE(at, std::string::npos) << name;
    const auto end = json.str().find('}', at);
    EXPECT_NE(json.str().substr(at, end - at).find(
                  "\"" + name + "\":" + std::to_string(value)),
              std::string::npos)
        << name;
  }
}

#define ARIA_COUNTER_NAME(plane, name, agg, doc) #name,
/// The fault plane's own list (the fault *plane* also has network and
/// engine entries, which FaultPlane::Counters does not carry).
const std::set<std::string_view> kFaultList = {
    ARIA_FAULT_COUNTERS(ARIA_COUNTER_NAME)};
#undef ARIA_COUNTER_NAME

TEST(CounterTable, FaultAbsorbFoldsByAgg) {
  RunResult a, b;
  std::size_t i = 0;
  workload::for_each_counter(a, [&](const counters::Counter&,
                                    std::uint64_t& v) { v = 3 + i++; });
  i = 0;
  workload::for_each_counter(b, [&](const counters::Counter&,
                                    std::uint64_t& v) { v = 40 - i++; });
  const counters::Values va = workload::counter_values(a);
  const counters::Values vb = workload::counter_values(b);
  a.faults.absorb(b.faults);
  const counters::Values folded = workload::counter_values(a);
  for (std::size_t k = 0; k < kCount; ++k) {
    if (!kFaultList.contains(kTable[k].name)) {
      EXPECT_EQ(folded[k], va[k]) << kTable[k].name;  // left alone
      continue;
    }
    const std::uint64_t expected = kTable[k].agg == Agg::max
                                       ? std::max(va[k], vb[k])
                                       : va[k] + vb[k];
    EXPECT_EQ(folded[k], expected) << kTable[k].name;
  }
}

/// The run's table counters as their owners hold them: the fault plane's,
/// every node's healing and node counters folded entry by entry, and the
/// network's and the engine's.
counters::Values from_owners(workload::GridSimulation& sim) {
  counters::Values expected{};
  for (const proto::AriaNode* n : sim.all_nodes()) {
    RunResult one;  // this node's values alone, via the owners' fields
    counters::fold_healing(one, n->neighbor_view().stats());
    counters::fold_node(one, n->counters());
    counters::fold(expected, workload::counter_values(one));
  }
  RunResult run;
  if (const sim::FaultPlane* plane = sim.network().fault_plane()) {
    run.faults = plane->counters();
  }
  counters::fold_network(run, sim.network().counters());
  counters::fold_engine(run, sim.counters());
  counters::fold(expected, workload::counter_values(run));
  return expected;
}

TEST(CounterTable, HarvestFoldsNodeCountersByAgg) {
  // A saturated grid, so queue high-water marks differ across nodes and a
  // sum would not equal the max.
  workload::ScenarioConfig cfg = workload::scenario_by_name("iMixed");
  cfg.node_count = 30;
  cfg.job_count = 120;
  cfg.submission_interval = Duration::seconds(5);
  cfg.horizon = Duration::hours(12);
  cfg.aria.overload.enabled = true;
  workload::GridSimulation sim{cfg, 7};
  const RunResult r = sim.run();

  const counters::Values expected = from_owners(sim);
  const counters::Values got = workload::counter_values(r);
  for (std::size_t k = 0; k < kCount; ++k) {
    EXPECT_EQ(got[k], expected[k]) << kTable[k].name;
  }
  std::uint64_t peak_sum = 0;
  for (const proto::AriaNode* n : sim.all_nodes()) {
    peak_sum += n->counters().peak_queue_depth;
  }
  EXPECT_GT(peak_sum, r.peak_queue_depth);  // max, not sum
  EXPECT_GT(r.accepts_sent, 0u);
}

TEST(CounterTable, HarvestCopiesNetworkAndEngineCounters) {
  // Two regions and injected duplicates feed the network's meters. A
  // whole-grid outage from minute 19 to 22 (submissions start at 20), then
  // only the even-numbered half of the grid alive until minute 30, feeds
  // the engine's.
  workload::CliOptions options;
  ASSERT_FALSE(workload::parse_cli({"--nodes", "30", "--jobs", "40",
                                    "--horizon", "300", "--hierarchy",
                                    "--regions", "2", "--healing", "--churn",
                                    "--dup", "0.02", "--seed", "1"},
                                   options)
                   .has_value());
  workload::GridSimulation sim{workload::resolve_scenario(options),
                               options.seed};
  sim.build();
  const auto at_minute = [&](int minute, auto action) {
    sim.simulator().schedule_at(
        TimePoint::origin() + Duration::minutes(minute), [&sim, action] {
          for (proto::AriaNode* n : sim.all_nodes()) action(*n);
        });
  };
  at_minute(19, [](proto::AriaNode& n) {
    if (!n.crashed()) n.crash();
  });
  at_minute(22, [](proto::AriaNode& n) {
    if (n.crashed() && n.id().value() % 2 == 0) n.restart();
  });
  at_minute(30, [](proto::AriaNode& n) {
    if (n.crashed()) n.restart();
  });
  const RunResult r = sim.run();

  const counters::Values expected = from_owners(sim);
  const counters::Values got = workload::counter_values(r);
  for (std::size_t k = 0; k < kCount; ++k) {
    EXPECT_EQ(got[k], expected[k]) << kTable[k].name;
  }
  const sim::Network::Counters& net = sim.network().counters();
  EXPECT_GT(net.duplicated_messages, 0u);
  EXPECT_GT(net.intra_region_messages, 0u);
  EXPECT_GT(net.intra_region_bytes, 0u);
  EXPECT_GT(net.cross_region_messages, 0u);
  EXPECT_GT(net.cross_region_bytes, 0u);
  EXPECT_EQ(r.duplicated_messages, r.faults.duplicated);
  EXPECT_GT(sim.counters().submissions_dropped, 0u);
  EXPECT_GT(sim.counters().live_disconnected_samples, 0u);
  EXPECT_GT(sim.counters().max_disconnect_streak, 0u);
  EXPECT_EQ(r.max_heal_minutes(),
            static_cast<double>(r.max_disconnect_streak));  // 1-min samples
}

/// The table as docs/counters.md carries it between its markers.
std::string render_table() {
  std::ostringstream os;
  os << "| name | plane | agg | meaning |\n|---|---|---|---|\n";
  for (const counters::Counter& c : kTable) {
    os << "| `" << c.name << "` | " << c.plane << " | "
       << (c.agg == Agg::max ? "max" : "sum") << " | " << c.doc << " |\n";
  }
  return os.str();
}

TEST(CounterTable, DocsTableIsTheRenderedRegistry) {
  std::ifstream in{ARIA_SOURCE_DIR "/docs/counters.md"};
  ASSERT_TRUE(in) << "docs/counters.md not found";
  const std::string doc{std::istreambuf_iterator<char>{in}, {}};
  const std::string begin = "<!-- counter table: begin -->\n";
  const std::string end = "<!-- counter table: end -->";
  const auto b = doc.find(begin);
  const auto e = doc.find(end);
  ASSERT_NE(b, std::string::npos);
  ASSERT_NE(e, std::string::npos);
  const std::string table = doc.substr(b + begin.size(), e - b - begin.size());
  EXPECT_EQ(table, render_table())
      << "docs/counters.md is stale; replace the table with:\n"
      << render_table();
}

}  // namespace
}  // namespace aria
