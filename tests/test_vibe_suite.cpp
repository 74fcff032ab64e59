// Tests for the VIBe suite infrastructure: cluster assembly, result
// tables, benchmark plumbing sanity, and cross-profile invariants of the
// measurement machinery itself.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "nic/profiles.hpp"
#include "vibe/clientserver.hpp"
#include "vibe/cluster.hpp"
#include "vibe/datatransfer.hpp"
#include "vibe/nondata.hpp"
#include "vibe/report.hpp"
#include "vibe/results.hpp"

namespace vibe::suite {
namespace {

TEST(ResultTableTest, RenderTextAlignsAndTrims) {
  ResultTable t("demo", {"bytes", "value"});
  t.addRow({4, 1.5});
  t.addRow({28672, 123.456});
  const std::string text = t.renderText(2);
  EXPECT_NE(text.find("== demo =="), std::string::npos);
  EXPECT_NE(text.find("1.5"), std::string::npos);
  EXPECT_NE(text.find("123.46"), std::string::npos);
  EXPECT_EQ(text.find("1.50"), std::string::npos);  // trailing zero trimmed
}

TEST(ResultTableTest, NanRendersAsNotSupported) {
  ResultTable t("demo", {"x"});
  t.addRow({std::numeric_limits<double>::quiet_NaN()});
  EXPECT_NE(t.renderText().find("n/s"), std::string::npos);
  EXPECT_EQ(t.renderCsv().find("nan"), std::string::npos);
  // Machine-readable output must never carry the human-readable marker.
  EXPECT_EQ(t.renderCsv().find("n/s"), std::string::npos);
  EXPECT_EQ(t.renderJson().find("n/s"), std::string::npos);
}

TEST(ResultTableTest, CsvNanCellsRoundTripAsEmpty) {
  // A NaN ("not supported") cell must come back as an empty field that a
  // CSV reader can turn into NaN — not as text it would choke on.
  ResultTable t("demo", {"a", "b", "c"});
  t.addRow({1.5, std::numeric_limits<double>::quiet_NaN(), 28672});
  std::istringstream csv(t.renderCsv());
  std::string header, row;
  std::getline(csv, header);
  std::getline(csv, row);
  EXPECT_EQ(header, "a,b,c");
  // Re-parse the row the way a plotting script would.
  std::istringstream cells(row);
  std::string cell;
  std::vector<double> parsed;
  while (std::getline(cells, cell, ',')) {
    parsed.push_back(cell.empty() ? std::numeric_limits<double>::quiet_NaN()
                                  : std::stod(cell));
  }
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_DOUBLE_EQ(parsed[0], 1.5);
  EXPECT_TRUE(std::isnan(parsed[1]));
  EXPECT_DOUBLE_EQ(parsed[2], 28672.0);
}

TEST(ResultTableTest, JsonRendersTitleColumnsAndNullForNan) {
  ResultTable t("demo \"quoted\"", {"size", "lat"});
  t.addRow({4, 33.5});
  t.addRow({16, std::numeric_limits<double>::quiet_NaN()});
  const std::string json = t.renderJson();
  EXPECT_EQ(json, "{\"title\":\"demo \\\"quoted\\\"\","
                  "\"columns\":[\"size\",\"lat\"],"
                  "\"rows\":[[4,33.5],[16,null]]}");
  // Backspace, form feed and carriage return take their two-character
  // escapes, as in every obs JSON exporter.
  const ResultTable ctl("a\bb\fc\rd", {"x"});
  EXPECT_EQ(ctl.renderJson(),
            "{\"title\":\"a\\bb\\fc\\rd\",\"columns\":[\"x\"],\"rows\":[]}");
}

TEST(ResultTableTest, CsvRoundTripsValues) {
  ResultTable t("demo", {"a", "b"});
  t.addRow({1.25, 2.5});
  std::istringstream csv(t.renderCsv());
  std::string header, row;
  std::getline(csv, header);
  std::getline(csv, row);
  EXPECT_EQ(header, "a,b");
  EXPECT_EQ(row, "1.25,2.5");
}

TEST(ResultTableTest, ColumnLookupAndBounds) {
  ResultTable t("demo", {"a", "b"});
  t.addRow({1, 2});
  EXPECT_EQ(t.columnIndex("b"), 1u);
  EXPECT_THROW(t.columnIndex("zz"), std::invalid_argument);
  EXPECT_THROW(t.addRow({1}), std::invalid_argument);
  EXPECT_DOUBLE_EQ(t.at(0, 1), 2.0);
}

TEST(SweepTest, PaperAxesMatchThePlots) {
  const auto sizes = paperMessageSizes();
  EXPECT_EQ(sizes.front(), 4u);
  EXPECT_EQ(sizes.back(), 28672u);
  EXPECT_TRUE(std::is_sorted(sizes.begin(), sizes.end()));
  EXPECT_EQ(extendedBufferSizes().back(), 32u << 20);
}

TEST(ClusterTest, BuildsProvidersWithNames) {
  ClusterConfig cfg;
  cfg.profile = nic::clanProfile();
  cfg.nodes = 3;
  Cluster cluster(cfg);
  EXPECT_EQ(cluster.nodeCount(), 3u);
  EXPECT_EQ(cluster.node(2).hostName(), "node2");
  EXPECT_EQ(cluster.node(0).nodeId(), 0u);
  EXPECT_THROW(cluster.node(3), std::out_of_range);
}

TEST(ClusterTest, RejectsTooManyPrograms) {
  ClusterConfig cfg;
  cfg.profile = nic::clanProfile();
  cfg.nodes = 1;
  Cluster cluster(cfg);
  EXPECT_THROW(cluster.run({nullptr, nullptr}), sim::SimError);
}

TEST(MeasurementTest, DeterministicAcrossRuns) {
  TransferConfig t;
  t.msgBytes = 1024;
  ClusterConfig cfg;
  cfg.profile = nic::bviaProfile();
  const auto a = runPingPong(cfg, t);
  const auto b = runPingPong(cfg, t);
  EXPECT_DOUBLE_EQ(a.latencyUsec, b.latencyUsec);
  EXPECT_DOUBLE_EQ(a.senderCpuPct, b.senderCpuPct);
}

class LatencyMonotoneSweep : public ::testing::TestWithParam<std::string> {};
INSTANTIATE_TEST_SUITE_P(Profiles, LatencyMonotoneSweep,
                         ::testing::Values("mvia", "bvia", "clan"),
                         [](const auto& pi) { return pi.param; });

TEST_P(LatencyMonotoneSweep, LatencyGrowsWithMessageSize) {
  ClusterConfig cfg;
  cfg.profile = nic::profileByName(GetParam());
  double prev = 0;
  for (const std::uint64_t size : paperMessageSizes()) {
    TransferConfig t;
    t.msgBytes = size;
    t.iterations = 50;
    t.warmup = 10;
    const double lat = runPingPong(cfg, t).latencyUsec;
    EXPECT_GE(lat, prev) << "size " << size;
    prev = lat;
  }
}

TEST_P(LatencyMonotoneSweep, CpuUtilizationIsAPercentage) {
  ClusterConfig cfg;
  cfg.profile = nic::profileByName(GetParam());
  for (const auto reap : {ReapMode::Poll, ReapMode::Block}) {
    TransferConfig t;
    t.msgBytes = 2048;
    t.reap = reap;
    const auto r = runPingPong(cfg, t);
    EXPECT_GE(r.senderCpuPct, 0.0);
    EXPECT_LE(r.senderCpuPct, 100.5);
    EXPECT_GE(r.receiverCpuPct, 0.0);
    EXPECT_LE(r.receiverCpuPct, 100.5);
  }
}

TEST_P(LatencyMonotoneSweep, BandwidthSaturatesBelowPhysicalBound) {
  ClusterConfig cfg;
  cfg.profile = nic::profileByName(GetParam());
  const double bound =
      std::min(cfg.profile.linkMBps, cfg.profile.dmaMBps);
  double prev = 0;
  for (const std::uint64_t size : {256ull, 2048ull, 16384ull}) {
    TransferConfig t;
    t.msgBytes = size;
    t.burst = 80;
    const double bw = runBandwidth(cfg, t).bandwidthMBps;
    EXPECT_GT(bw, 0.0);
    EXPECT_LE(bw, bound);
    EXPECT_GE(bw, prev * 0.95);  // roughly nondecreasing with size
    prev = bw;
  }
}

TEST(MeasurementTest, PipelineDepthOneMatchesLatencyPacing) {
  // depth-1 streaming is a half-duplex send-ack cadence; its bandwidth
  // must be well below the saturated pipeline's.
  ClusterConfig cfg;
  cfg.profile = nic::clanProfile();
  TransferConfig t;
  t.msgBytes = 4096;
  t.pipelineDepth = 1;
  const double shallow = runBandwidth(cfg, t).bandwidthMBps;
  t.pipelineDepth = 0;
  const double deep = runBandwidth(cfg, t).bandwidthMBps;
  EXPECT_LT(shallow, deep * 0.7);
}

TEST(MeasurementTest, MultiSegmentDescriptorsCostMore) {
  ClusterConfig cfg;
  cfg.profile = nic::bviaProfile();
  TransferConfig t;
  t.msgBytes = 4096;
  const double one = runPingPong(cfg, t).latencyUsec;
  t.dataSegments = 16;
  const double many = runPingPong(cfg, t).latencyUsec;
  EXPECT_GT(many, one + 2.0);
}

TEST(MeasurementTest, NotifyFallsBetweenPollAndBlock) {
  ClusterConfig cfg;
  cfg.profile = nic::clanProfile();
  TransferConfig t;
  t.msgBytes = 64;
  const double poll = runPingPong(cfg, t).latencyUsec;
  t.reap = ReapMode::Notify;
  const double notify = runPingPong(cfg, t).latencyUsec;
  t.reap = ReapMode::Block;
  const double block = runPingPong(cfg, t).latencyUsec;
  EXPECT_GT(notify, poll);
  EXPECT_LT(notify, block);
}

TEST(MeasurementTest, ClientServerRatesAreConsistentWithRtt) {
  ClusterConfig cfg;
  cfg.profile = nic::mviaProfile();
  ClientServerConfig cs;
  cs.requestBytes = 16;
  cs.replyBytes = 256;
  const auto r = runClientServer(cfg, cs);
  EXPECT_NEAR(r.transactionsPerSec, 1e6 / r.roundTripUsec,
              r.transactionsPerSec * 0.01);
}

TEST(MeasurementTest, LatencyPercentilesAreCoherent) {
  ClusterConfig cfg;
  cfg.profile = nic::clanProfile();
  TransferConfig t;
  t.msgBytes = 1024;
  t.iterations = 120;
  const auto r = runPingPong(cfg, t);
  EXPECT_GT(r.latencyP50Usec, 0);
  EXPECT_LE(r.latencyP50Usec, r.latencyP99Usec);
  EXPECT_LE(r.latencyP99Usec, r.latencyMaxUsec);
  // Steady-state base config: essentially no jitter.
  EXPECT_NEAR(r.latencyP50Usec, r.latencyUsec, 0.5);
  EXPECT_NEAR(r.latencyMaxUsec, r.latencyP50Usec, 1.0);
}

TEST(MeasurementTest, ReuseSweepWidensLatencyDistribution) {
  // At 50% reuse, iterations alternate between cached and cold
  // translations on the BVIA model: p99 pulls away from p50.
  ClusterConfig cfg;
  cfg.profile = nic::bviaProfile();
  TransferConfig t;
  t.msgBytes = 12288;
  t.iterations = 200;
  t.reusePercent = 50;
  t.bufferPool = 160;
  const auto r = runPingPong(cfg, t);
  EXPECT_GT(r.latencyP99Usec, r.latencyP50Usec + 5.0);
}

TEST(ClusterTreeTopology, CrossLeafLatencyExceedsSameLeaf) {
  ClusterConfig cfg;
  cfg.profile = nic::clanProfile();
  cfg.nodes = 4;
  cfg.nodesPerSwitch = 2;
  // Same-leaf ping (0 <-> 1) vs cross-leaf (0 <-> 2): the TransferConfig
  // harness always uses nodes 0/1, so compare via two cluster layouts.
  TransferConfig t;
  t.msgBytes = 4;
  const double sameLeaf = runPingPong(cfg, t).latencyUsec;
  cfg.nodesPerSwitch = 1;  // every host on its own leaf: 0<->1 crosses root
  const double crossLeaf = runPingPong(cfg, t).latencyUsec;
  EXPECT_GT(crossLeaf, sameLeaf + 1.0);
  // Flat star matches the same-leaf case shape.
  cfg.nodesPerSwitch = 0;
  cfg.nodes = 2;
  EXPECT_NEAR(runPingPong(cfg, t).latencyUsec, sameLeaf, 0.01);
}

TEST(SurveyTest, RunSurveyProducesCoherentReport) {
  SurveyOptions opts;
  opts.messageSizes = {4, 4096};
  opts.replySizes = {16};
  opts.iterations = 40;
  opts.warmup = 8;
  opts.regSizes = {4096};
  const SurveyResult r = runSurvey(nic::clanProfile(), opts);
  EXPECT_EQ(r.implementation, "cLAN VIA (Giganet)");
  ASSERT_EQ(r.transfers.size(), 2u);
  EXPECT_GT(r.transfers[0].latencyPollUsec, 0);
  EXPECT_GT(r.transfers[1].bandwidthMBps, r.transfers[0].bandwidthMBps);
  EXPECT_GT(r.transfers[0].latencyBlockUsec, r.transfers[0].latencyPollUsec);
  EXPECT_TRUE(r.rdmaWriteSupported);
  EXPECT_NEAR(r.noReuseOverheadUsec, 0.0, 0.5);  // cLAN: reuse-insensitive
  ASSERT_EQ(r.transactions.size(), 1u);
  EXPECT_GT(r.transactions[0].transactionsPerSec, 1000);

  const std::string text = renderSurvey(r);
  EXPECT_NE(text.find("cLAN"), std::string::npos);
  EXPECT_NE(text.find("[1] non-data-transfer"), std::string::npos);
  EXPECT_NE(text.find("[2] data transfer"), std::string::npos);
  EXPECT_NE(text.find("[3] client/server"), std::string::npos);
  EXPECT_NE(text.find("component probes"), std::string::npos);
}

TEST(SurveyTest, BviaSurveyFlagsItsWeaknesses) {
  SurveyOptions opts;
  opts.messageSizes = {4};
  opts.replySizes = {16};
  opts.iterations = 40;
  opts.warmup = 8;
  opts.regSizes = {4096};
  opts.probeBytes = 12288;
  const SurveyResult r = runSurvey(nic::bviaProfile(), opts);
  EXPECT_FALSE(r.rdmaWriteSupported);
  EXPECT_GT(r.noReuseOverheadUsec, 20);   // translation-cache misses
  EXPECT_GT(r.multiViOverheadUsec, 20);   // firmware VI scans
  EXPECT_GT(r.cqOverheadUsec, 1.5);       // NIC-resident CQ records
  EXPECT_NE(renderSurvey(r).find("not supported"), std::string::npos);
}

TEST(MeasurementTest, NonDataCostsArePositiveAndFinite) {
  const auto r = suite::runNonData({nic::clanProfile()});
  for (double v : {r.createVi, r.destroyVi, r.connect, r.teardown,
                   r.createCq, r.destroyCq}) {
    EXPECT_GT(v, 0.0);
    EXPECT_TRUE(std::isfinite(v));
  }
}

}  // namespace
}  // namespace vibe::suite
