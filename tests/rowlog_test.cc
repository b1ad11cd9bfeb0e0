// Record-log coverage (DESIGN.md "Record log"). The campaign journal, the
// worker fabric's control rows and the serving WAL all write through
// core/rowlog; the golden tests below drive each writer through a scripted
// sequence — hostile failure text, a torn tail followed by an append, a
// .stale rotation — and pin the on-disk bytes as literals taken from the
// writers before they shared one implementation. The rest covers the rowlog
// primitives directly.

#include "core/rowlog.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_common.h"
#include "core/fabric.h"
#include "core/fault.h"
#include "core/serving.h"

namespace etsc {
namespace bench {

/// Reaches the campaign's private journal writer: the golden sequence needs
/// rows with fixed scores and timings, which a real Run() cannot produce.
struct CampaignTestPeer {
  static Status Load(Campaign& campaign, const std::string& header) {
    campaign.journal_header_ = header;
    return campaign.LoadCache(header);
  }
  static void Append(Campaign& campaign, const CampaignCell& cell) {
    campaign.AppendCache(cell);
  }
};

}  // namespace bench

namespace {

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  std::remove((path + ".stale").c_str());
  std::remove((path + ".lock").c_str());
  return path;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes,
               std::ios::openmode mode = std::ios::trunc) {
  std::ofstream out(path, std::ios::binary | mode);
  out << bytes;
}

/// Replaces the expiry field of every @lease row with "<t>": expiries are
/// monotonic-clock instants, the only bytes that differ between runs.
std::string MaskLeaseExpiries(const std::string& text) {
  std::istringstream in(text);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    const size_t last = line.rfind(",#end");
    if (line.rfind("@lease,", 0) == 0 && last != std::string::npos) {
      const size_t comma = line.rfind(',', last - 1);
      line = line.substr(0, comma + 1) + "<t>" + line.substr(last);
    }
    out += line;
    if (!in.eof()) out += '\n';
  }
  return out;
}

/// Never decides before Finish: the WAL sequence controls every row.
class NeverDecides : public EarlyClassifier {
 public:
  Status Fit(const Dataset&) override { return Status::OK(); }
  Result<EarlyPrediction> PredictEarly(
      const TimeSeries& series) const override {
    if (series.length() == 0) return Status::InvalidArgument("empty series");
    return EarlyPrediction{1, series.length() + 1000};
  }
  std::string name() const override { return "never"; }
  bool SupportsMultivariate() const override { return true; }
  std::unique_ptr<EarlyClassifier> CloneUntrained() const override {
    return std::make_unique<NeverDecides>();
  }
};

// ---------------------------------------------------------------------------
// Golden bytes
// ---------------------------------------------------------------------------

TEST(RowLogGolden, CampaignJournalBytes) {
  const std::string path = TempPath("rowlog_journal.csv");
  const std::string foreign = "# v1 an-older-configuration\nECTS,Old,1,#end\n";
  WriteFile(path, foreign);
  bench::CampaignConfig config;
  config.cache_path = path;
  bench::Campaign campaign(config);
  ASSERT_TRUE(bench::CampaignTestPeer::Load(
                  campaign, "# v4 golden data=0123456789abcdef")
                  .ok());

  bench::CampaignCell trained;
  trained.algorithm = "ECTS";
  trained.dataset = "PowerCons";
  trained.trained = true;
  trained.accuracy = 0.75;
  trained.f1 = 1.0 / 3.0;
  trained.earliness = 0.1;
  trained.harmonic_mean = std::numeric_limits<double>::quiet_NaN();
  trained.train_seconds = 1.5;
  trained.test_seconds_per_instance = 1e-5;
  // First append: the foreign journal rotates aside, then header + row.
  bench::CampaignTestPeer::Append(campaign, trained);

  bench::CampaignCell failed;
  failed.algorithm = "EDSC";
  failed.dataset = "PowerCons";
  failed.failure = "fit failed:\nline two ,#end inside\\ done\r";
  failed.retries = 2;
  failed.quarantined = true;
  bench::CampaignTestPeer::Append(campaign, failed);

  WriteFile(path, "ECTS,Torn,1,0.5", std::ios::app);  // crash mid-row
  bench::CampaignCell after_tear = trained;
  after_tear.dataset = "DodgerLoopGame";
  after_tear.accuracy = 0.93;
  after_tear.harmonic_mean = 0.0;
  bench::CampaignTestPeer::Append(campaign, after_tear);

  EXPECT_EQ(ReadFile(path),
            "# v4 golden data=0123456789abcdef\n"
            "ECTS,PowerCons,1,0.75,0.33333333333333331,0.10000000000000001,nan,"
            "1.5,1.0000000000000001e-05,0,0,,#end\n"
            "EDSC,PowerCons,0,0,0,1,0,0,0,2,1,fit failed:\\nline two \\c#end "
            "inside\\\\ done\\r,#end\n"
            "ECTS,Torn,1,0.5\n"
            "ECTS,DodgerLoopGame,1,0.93000000000000005,0.33333333333333331,"
            "0.10000000000000001,0,1.5,1.0000000000000001e-05,0,0,,#end\n");
  EXPECT_EQ(ReadFile(path + ".stale"), foreign);
}

TEST(RowLogGolden, FabricJournalBytes) {
  const std::string path = TempPath("rowlog_fabric.csv");
  const std::string foreign =
      "# v3 an-older-fabric data=0000000000000000\n"
      "@lease,ECTS,PowerCons,w0,1,#end\n";
  WriteFile(path, foreign);
  std::vector<fabric::GridCell> grid(2);
  grid[0] = {"ECTS", "PowerCons", fabric::kNoCell};
  grid[1] = {"ECTS", "DodgerLoopGame", 0};
  fabric::LeaseOptions options;
  options.ttl_ms = 60000.0;
  fabric::WorkerJournal journal(
      path, "# v4 fabric-golden data=0000000000000000", grid, "w1", options);
  ASSERT_TRUE(journal.EnsureHeader().ok());  // rotates the foreign journal

  auto first = journal.Acquire();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->index, 0u);
  ASSERT_TRUE(journal.Renew(0).ok());
  ASSERT_TRUE(journal.PublishQuarantine("EDSC").ok());
  fabric::CellRow cell;
  cell.algorithm = "ECTS";
  cell.dataset = "PowerCons";
  cell.trained = true;
  cell.accuracy = 0.5;
  cell.failure = "predict budget exceeded, twice\n,#end";
  ASSERT_TRUE(journal.Complete(0, fabric::FormatCellRow(cell)).ok());

  WriteFile(path, "@lease,ECTS,Dodger", std::ios::app);  // crash mid-row
  auto second = journal.Acquire();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(second->index, 1u);

  EXPECT_EQ(MaskLeaseExpiries(ReadFile(path)),
            "# v4 fabric-golden data=0000000000000000\n"
            "@lease,ECTS,PowerCons,w1,<t>,#end\n"
            "@lease,ECTS,PowerCons,w1,<t>,#end\n"
            "@quarantine,EDSC,w1,#end\n"
            "ECTS,PowerCons,1,0.5,0,1,0,0,0,0,0,predict budget exceeded\\c "
            "twice\\n\\c#end,#end\n"
            "@lease,ECTS,Dodger\n"
            "@lease,ECTS,DodgerLoopGame,w1,<t>,#end\n");
  EXPECT_EQ(ReadFile(path + ".stale"), foreign);
}

TEST(RowLogGolden, ServingWalBytes) {
  const std::string path = TempPath("rowlog_serving.wal");
  WriteFile(path, "not a wal\n");
  const auto model = std::make_shared<NeverDecides>();
  {
    ServingOptions options;
    options.wal_path = path;
    ServingEngine live(options);
    ASSERT_TRUE(live.RegisterModel("m", model, 2).ok());
    auto first = live.Open("m");  // arms the WAL: the foreign file rotates
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_TRUE(live.Ingest(*first, {0.1, -2.5}).ok());
    ASSERT_TRUE(live.Ingest(*first, {1e-300, 3.0}).ok());
    auto second = live.Open("m");
    ASSERT_TRUE(second.ok());
    ASSERT_TRUE(live.Ingest(*second, {1.0 / 3.0, 0.0}).ok());
    ASSERT_TRUE(live.Finish(*first).ok());
    ASSERT_TRUE(live.Close(*first).ok());
  }
  ASSERT_TRUE(TruncateTail(path, 3).ok());  // tears the final close row
  {
    ServingOptions options;
    options.session_budget_seconds = 1e-9;  // recovery forces session 2
    ServingEngine recovered(options);
    ASSERT_TRUE(recovered.RegisterModel("m", model, 2).ok());
    auto rec = recovered.Recover(path);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(rec->torn_rows, 1u);
    auto third = recovered.Open("m");
    ASSERT_TRUE(third.ok());
    ASSERT_TRUE(recovered.Ingest(*third, {2.0, 4.0}).ok());
    ASSERT_TRUE(recovered.Close(2).ok());
  }
  EXPECT_EQ(ReadFile(path),
            "# etscwal v1\n"
            "O,1,m,#end\n"
            "I,1,0.10000000000000001,-2.5,#end\n"
            "I,1,1e-300,3,#end\n"
            "O,2,m,#end\n"
            "I,2,0.33333333333333331,0,#end\n"
            "F,1,#end\n"
            "C,1,#e\n"
            "D,2,1,#end\n"
            "O,3,m,#end\n"
            "I,3,2,4,#end\n"
            "C,2,#end\n");
  EXPECT_EQ(ReadFile(path + ".stale"), "not a wal\n");
}

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

TEST(RowLog, SealAndUnsealRoundTripAndTornRowsStayUnsealed) {
  const std::string row =
      rowlog::Row().Text("I").Int(7).Real(0.5).Escaped("a,b\n").Seal();
  EXPECT_EQ(row, "I,7,0.5,a\\cb\\n,#end");
  std::string_view body;
  ASSERT_TRUE(rowlog::Unseal(row, &body));
  EXPECT_EQ(body, "I,7,0.5,a\\cb\\n");
  EXPECT_EQ(rowlog::Seal(std::string(body)), row);
  EXPECT_FALSE(rowlog::Unseal(row.substr(0, row.size() - 1), &body));
  EXPECT_FALSE(rowlog::Unseal("# v4 header", &body));
}

TEST(RowLog, StrictNumbersRejectGarbageButKeepNan) {
  double real = 0.0;
  EXPECT_TRUE(rowlog::ParseReal("0.10000000000000001", &real));
  EXPECT_EQ(real, 0.1);
  EXPECT_TRUE(rowlog::ParseReal("nan", &real));
  EXPECT_TRUE(std::isnan(real));
  for (const char* bad : {"", "banana", "1.5x", " 1", "1 ", "0x10"}) {
    EXPECT_FALSE(rowlog::ParseReal(bad, &real)) << bad;
  }
  uint64_t count = 0;
  EXPECT_TRUE(rowlog::ParseInt("18446744073709551615", &count));
  EXPECT_EQ(count, std::numeric_limits<uint64_t>::max());
  for (const char* bad :
       {"", "-1", "+1", "1.0", "12x", " 3", "18446744073709551616"}) {
    EXPECT_FALSE(rowlog::ParseInt(bad, &count)) << bad;
  }
}

TEST(RowLog, SplitKeepsEmptyFields) {
  std::vector<std::string_view> fields;
  rowlog::SplitFields("a,,b,", &fields);
  EXPECT_EQ(fields, (std::vector<std::string_view>{"a", "", "b", ""}));
}

TEST(RowLog, HeaderVersionAndNewerHeadersAreRefusedNotForeign) {
  EXPECT_EQ(rowlog::HeaderVersion("# etscwal v12", "# etscwal v"), 12);
  EXPECT_EQ(rowlog::HeaderVersion("# etscwal v", "# etscwal v"), 0);
  EXPECT_EQ(rowlog::HeaderVersion("# v4 scale=1", "# etscwal v"), 0);

  std::istringstream newer("# v5 someday\n");
  const auto refused = rowlog::ReadHeader(newer, "j", "# v", "# v4 now");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.status().message().find("upgrade"), std::string::npos);

  std::istringstream older("# v3 then\n");
  EXPECT_EQ(*rowlog::ReadHeader(older, "j", "# v", "# v4 now"),
            rowlog::Header::kForeign);
  std::istringstream empty("");
  EXPECT_EQ(*rowlog::ReadHeader(empty, "j", "# v", "# v4 now"),
            rowlog::Header::kMissing);
}

TEST(RowLog, ScanSkipsAndCountsTornRowsAndReportsLineNumbers) {
  std::istringstream in("a,1,#end\n\nb,2\nc,3,#end\n");
  size_t torn = 0;
  std::vector<std::string> seen;
  ASSERT_TRUE(rowlog::ScanRows(in, &torn,
                               [&](std::string_view body, size_t line) {
                                 seen.push_back(std::string(body) + "@" +
                                                std::to_string(line));
                                 return Status::OK();
                               })
                  .ok());
  EXPECT_EQ(torn, 1u);
  EXPECT_EQ(seen, (std::vector<std::string>{"a,1@2", "c,3@5"}));
}

TEST(RowLog, CellRowsParseStrictly) {
  fabric::CellRow cell;
  cell.algorithm = "ECTS";
  cell.dataset = "PowerCons";
  cell.f1 = std::numeric_limits<double>::quiet_NaN();  // empty-fold score
  cell.failure = "a,b\n,#end";
  cell.retries = 3;
  std::string_view body;
  const std::string row = fabric::FormatCellRow(cell);
  ASSERT_TRUE(rowlog::Unseal(row, &body));
  fabric::CellRow parsed;
  ASSERT_TRUE(fabric::ParseCellRow(body, &parsed));
  EXPECT_TRUE(std::isnan(parsed.f1));
  EXPECT_EQ(parsed.failure, cell.failure);
  EXPECT_EQ(parsed.retries, 3);
  EXPECT_EQ(fabric::FormatCellRow(parsed), row);

  for (const char* bad : {
           "ECTS,PowerCons,1,banana,0,1,0,0,0,0,0,",  // garbage number
           "ECTS,PowerCons,2,0,0,1,0,0,0,0,0,",       // flag out of range
           "ECTS,PowerCons,1,0,0,1,0,0,0,-1,0,",      // negative retries
           "ECTS,PowerCons,1,0,0,1,0,0,0,0,0",        // missing field
           "ECTS,PowerCons,1,0,0,1,0,0,0,0,0,,x",     // extra field
       }) {
    EXPECT_FALSE(fabric::ParseCellRow(bad, &parsed)) << bad;
  }
}

TEST(RowLog, AppenderRotatesOrContinuesAndRefusesUnsealedRows) {
  const std::string path = TempPath("rowlog_appender.log");
  WriteFile(path, "# old v1\nx,#end\ntorn");
  {
    rowlog::Appender continued;
    ASSERT_TRUE(continued.Open(path, "# new v1").ok());
    EXPECT_EQ(continued.Append("unsealed").code(),
              StatusCode::kInvalidArgument);
    ASSERT_TRUE(continued.Append("y,#end").ok());
  }
  EXPECT_EQ(ReadFile(path), "# old v1\nx,#end\ntorn\ny,#end\n");
  {
    rowlog::Appender rotated;
    ASSERT_TRUE(
        rotated.Open(path, "# new v1", rowlog::Appender::Existing::kRotate)
            .ok());
    ASSERT_TRUE(rotated.Append("z,#end").ok());
  }
  EXPECT_EQ(ReadFile(path), "# new v1\nz,#end\n");
  EXPECT_EQ(ReadFile(path + ".stale"), "# old v1\nx,#end\ntorn\ny,#end\n");
}

TEST(RowLog, FailedRotationIsAnErrorAndNeverTruncates) {
  // A directory cannot be renamed over by a file: rename fails, and the
  // original bytes must survive untouched.
  const std::string path = TempPath("rowlog_norotate.log");
  const std::string stale = path + ".stale";
  ::rmdir((stale + "/keep").c_str());  // left over by an interrupted run
  ::rmdir(stale.c_str());
  ASSERT_EQ(::mkdir(stale.c_str(), 0755), 0);
  ASSERT_EQ(::mkdir((stale + "/keep").c_str(), 0755), 0);  // not removable
  WriteFile(path, "# old v1\nx,#end\n");
  const Status status = rowlog::RotateStale(path);
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_EQ(ReadFile(path), "# old v1\nx,#end\n");
  ::rmdir((stale + "/keep").c_str());
  ::rmdir(stale.c_str());
}

}  // namespace
}  // namespace etsc
