// Stats layer tests: RunMetrics, Table, CsvWriter, sweep helpers.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "runner/scenario_file.hpp"
#include "runner/sweep.hpp"
#include "stats/csv.hpp"
#include "stats/metrics.hpp"
#include "stats/table.hpp"

namespace vprobe::stats {
namespace {

// ---------------------------------------------------------- RunMetrics ----

TEST(RunMetricsTest, FinalizeAveragesRuntimes) {
  RunMetrics m;
  m.app_runtime_s["a"] = 10.0;
  m.app_runtime_s["b"] = 20.0;
  m.finalize();
  EXPECT_DOUBLE_EQ(m.avg_runtime_s, 15.0);
}

TEST(RunMetricsTest, RemoteRatio) {
  RunMetrics m;
  m.total_mem_accesses = 200.0;
  m.remote_mem_accesses = 80.0;
  EXPECT_DOUBLE_EQ(m.remote_access_ratio(), 0.4);
  RunMetrics empty;
  EXPECT_DOUBLE_EQ(empty.remote_access_ratio(), 0.0);
}

TEST(RunMetricsTest, NormalizedGuardsZero) {
  EXPECT_DOUBLE_EQ(normalized(5.0, 10.0), 0.5);
  EXPECT_DOUBLE_EQ(normalized(5.0, 0.0), 0.0);
}

// --------------------------------------------------------------- Table ----

TEST(TableTest, RendersAlignedColumns) {
  Table t({"workload", "Credit", "vProbe"});
  t.add_row("soplex", {1.0, 0.675});
  t.add_row({"milc", "1.000", "0.801"});
  const std::string s = t.str();
  EXPECT_NE(s.find("workload"), std::string::npos);
  EXPECT_NE(s.find("soplex"), std::string::npos);
  EXPECT_NE(s.find("0.675"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, ExtraCellsDropped) {
  Table t({"a", "b"});
  t.add_row({"1", "2", "3"});
  EXPECT_EQ(t.str().find('3'), std::string::npos);
}

TEST(TableTest, FmtHelper) {
  EXPECT_EQ(fmt(1.5, "%.2f"), "1.50");
  EXPECT_EQ(fmt(42.0, "%.0f"), "42");
}

// ----------------------------------------------------------- CsvWriter ----

TEST(Csv, WritesEscapedRows) {
  const std::string path = testing::TempDir() + "vprobe_csv_test.csv";
  {
    CsvWriter csv(path, {"name", "value"});
    csv.add_row({"plain", "1"});
    csv.add_row({"with,comma", "2"});
    csv.add_row({"with\"quote", "3"});
    csv.add_row("labelled", {4.25});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "name,value");
  std::getline(in, line);
  EXPECT_EQ(line, "plain,1");
  std::getline(in, line);
  EXPECT_EQ(line, "\"with,comma\",2");
  std::getline(in, line);
  EXPECT_EQ(line, "\"with\"\"quote\",3");
  std::getline(in, line);
  EXPECT_EQ(line, "labelled,4.25");
  std::remove(path.c_str());
}

TEST(Csv, ThrowsOnBadPath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv", {"a"}), std::runtime_error);
}

// ------------------------------------------------------------ Host CSV ----

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(HostCsv, OneRowPerHostOfAFleetRun) {
  // run_scenario --hosts-csv writes this file.
  const stats::RunMetrics m = runner::run_scenario(runner::parse_scenario(
      "machines xeon_e5620 four_node\n"
      "horizon 0.05\n"
      "vm name=a mem=1G vcpus=2 host=0\n"
      "vm name=b mem=1G vcpus=2 host=1\n"
      "app vm=a kind=hungry\n"
      "app vm=b kind=hungry\n"));
  ASSERT_EQ(m.hosts.size(), 2u);
  const std::string path = testing::TempDir() + "vprobe_hosts_test.csv";
  write_host_csv(path, m);
  const auto lines = read_lines(path);
  std::remove(path.c_str());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0],
            "host,machine,domains,vcpus,busy_s,migrations,cross_node_migrations,"
            "trace_records,trace_digest,requests,latency_p50_s,latency_p99_s,"
            "latency_p999_s,slo_violations");
  for (std::size_t i = 0; i < 2; ++i) {
    const HostMetrics& h = m.hosts[i];
    EXPECT_EQ(lines[i + 1].rfind(h.name + "," + h.machine + ",1,2,", 0), 0u) << lines[i + 1];
    EXPECT_NE(lines[i + 1].find("," + hex_digest(h.trace_digest) + ","), std::string::npos)
        << lines[i + 1];
  }
  EXPECT_EQ(m.hosts[0].machine, "xeon_e5620");
  EXPECT_EQ(m.hosts[1].machine, "four_node");
}

TEST(HostCsv, SingleMachineRunWritesNothing) {
  const stats::RunMetrics m = runner::run_scenario(runner::parse_scenario(
      "machine xeon_e5620\n"
      "horizon 0.05\n"
      "vm name=a mem=1G vcpus=2\n"
      "app vm=a kind=spec profile=milc\n"));
  ASSERT_FALSE(m.is_cluster_run());
  const std::string path = testing::TempDir() + "vprobe_hosts_single.csv";
  std::remove(path.c_str());
  write_host_csv(path, m);
  EXPECT_FALSE(std::ifstream(path).good()) << "no file for a single machine";
}

// --------------------------------------------------------------- Sweep ----

TEST(Sweep, CollectAndNormalize) {
  std::vector<RunMetrics> runs(3);
  runs[0].avg_runtime_s = 10.0;
  runs[1].avg_runtime_s = 5.0;
  runs[2].avg_runtime_s = 20.0;
  auto values = runner::collect(runs, runner::metric_avg_runtime);
  EXPECT_EQ(values, (std::vector<double>{10.0, 5.0, 20.0}));
  auto norm = runner::normalize_to_first(values);
  EXPECT_EQ(norm, (std::vector<double>{1.0, 0.5, 2.0}));
}

TEST(Sweep, NormalizeHandlesZeroBaseline) {
  auto v = runner::normalize_to_first({0.0, 5.0});
  EXPECT_EQ(v, (std::vector<double>{0.0, 5.0}));
}

TEST(Sweep, MixNormalizedRuntime) {
  RunMetrics base, run;
  base.app_runtime_s = {{"a", 10.0}, {"b", 20.0}};
  run.app_runtime_s = {{"a", 5.0}, {"b", 10.0}};
  EXPECT_DOUBLE_EQ(runner::mix_normalized_runtime(run, base), 0.5);
  // Apps missing from the baseline are skipped.
  run.app_runtime_s["c"] = 99.0;
  EXPECT_DOUBLE_EQ(runner::mix_normalized_runtime(run, base), 0.5);
}

}  // namespace
}  // namespace vprobe::stats
