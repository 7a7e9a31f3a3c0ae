// Unit tests for utilities: deterministic RNG, SI formatting, tables, time,
// checked whole-file reads and writes.

#include "core/journal.hpp"
#include "core/report.hpp"
#include "io/netlist.hpp"
#include "obs/telemetry.hpp"
#include "sim/time.hpp"
#include "trace/trace.hpp"
#include "util/file.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace gfi {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        same += a.next() == b.next() ? 1 : 0;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        const double v = rng.uniform(-2.0, 3.0);
        EXPECT_GE(v, -2.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(Rng, BelowIsBounded)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.below(17), 17u);
    }
    EXPECT_EQ(rng.below(0), 0u);
    EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(13);
    bool sawLo = false;
    bool sawHi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.range(3, 6);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 6);
        sawLo = sawLo || v == 3;
        sawHi = sawHi || v == 6;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, UniformCoversRangeRoughly)
{
    Rng rng(17);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        sum += rng.uniform();
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Units, FormatSiPicksPrefix)
{
    EXPECT_EQ(formatSi(1e-3, "A"), "1 mA");
    EXPECT_EQ(formatSi(10e-3, "A"), "10 mA");
    EXPECT_EQ(formatSi(5e7, "Hz"), "50 MHz");
    EXPECT_EQ(formatSi(100e-12, "s"), "100 ps");
    EXPECT_EQ(formatSi(3.3e-9, "F"), "3.3 nF");
    EXPECT_EQ(formatSi(0.0, "V"), "0 V");
}

TEST(Units, NegativeValues)
{
    EXPECT_EQ(formatSi(-2e-3, "A"), "-2 mA");
}

TEST(Time, Conversions)
{
    EXPECT_EQ(fromSeconds(1e-9), kNanosecond);
    EXPECT_EQ(fromSeconds(20e-9), 20 * kNanosecond);
    EXPECT_DOUBLE_EQ(toSeconds(kMillisecond), 1e-3);
    EXPECT_EQ(fromSeconds(toSeconds(123456789)), 123456789);
}

TEST(Time, Formatting)
{
    EXPECT_EQ(formatTime(0), "0 s");
    EXPECT_EQ(formatTime(kNanosecond), "1 ns");
    EXPECT_EQ(formatTime(20 * kNanosecond), "20 ns");
    EXPECT_EQ(formatTime(170 * kMicrosecond), "170 us");
    EXPECT_EQ(formatTime(500 * kPicosecond), "500 ps");
    EXPECT_EQ(formatTime(1500 * kPicosecond), "1.500 ns");
}

TEST(Table, RendersAlignedColumns)
{
    TextTable t;
    t.setHeader({"a", "bb"});
    t.addRow({"1", "2"});
    t.addRow({"333", "4"});
    const std::string s = t.str();
    EXPECT_NE(s.find("| a   | bb |"), std::string::npos);
    EXPECT_NE(s.find("| 333 | 4  |"), std::string::npos);
}

TEST(Table, SeparatorAndPadding)
{
    TextTable t;
    t.setHeader({"x", "y", "z"});
    t.addRow({"1"});
    t.addSeparator();
    t.addRow({"a", "b", "c"});
    const std::string s = t.str();
    // Short rows are padded; separators render as dashes.
    EXPECT_NE(s.find("| 1 |   |   |"), std::string::npos);
    EXPECT_NE(s.find("+---+"), std::string::npos);
}

TEST(Csv, QuotesSpecialCharacters)
{
    const std::string path = "/tmp/gfi_test_csv.csv";
    {
        CsvWriter w(path);
        w.writeRow({"plain", "with,comma", "with\"quote"});
    }
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[256];
    ASSERT_NE(std::fgets(buf, sizeof buf, f), nullptr);
    std::fclose(f);
    EXPECT_STREQ(buf, "plain,\"with,comma\",\"with\"\"quote\"\n");
}

// /dev/full accepts fopen and a small buffered fwrite; the failure shows when
// fclose flushes. Every whole-file writer must report it instead of leaving
// a truncated file behind a zero exit status.
constexpr const char* kFullDisk = "/dev/full";

TEST(CheckedWrite, ReportJsonThrowsOnFullDisk)
{
    if (!std::filesystem::exists(kFullDisk)) {
        GTEST_SKIP() << kFullDisk << " is absent";
    }
    EXPECT_THROW(campaign::writeReportJson(campaign::CampaignReport{}, kFullDisk),
                 std::runtime_error);
}

TEST(CheckedWrite, TraceWriterThrowsOnFullDisk)
{
    if (!std::filesystem::exists(kFullDisk)) {
        GTEST_SKIP() << kFullDisk << " is absent";
    }
    obs::TraceWriter trace;
    trace.instantEvent("mark", "test", "{}");
    EXPECT_THROW(trace.writeFile(kFullDisk), std::runtime_error);
}

TEST(CheckedWrite, TelemetryMetricsThrowOnFullDisk)
{
    if (!std::filesystem::exists(kFullDisk)) {
        GTEST_SKIP() << kFullDisk << " is absent";
    }
    obs::Telemetry telemetry;
    telemetry.metrics().counter("gfi_test_total", "A counter to dump").inc();
    telemetry.setMetricsPath(kFullDisk);
    EXPECT_THROW(telemetry.flush(), std::runtime_error);
}

TEST(CheckedWrite, CsvWriterThrowsOnFullDisk)
{
    if (!std::filesystem::exists(kFullDisk)) {
        GTEST_SKIP() << kFullDisk << " is absent";
    }
    CsvWriter csv(kFullDisk);
    csv.writeRow({"a", "b"});
    EXPECT_THROW(csv.close(), std::runtime_error);
}

TEST(CheckedWrite, AnalogCsvThrowsOnFullDisk)
{
    if (!std::filesystem::exists(kFullDisk)) {
        GTEST_SKIP() << kFullDisk << " is absent";
    }
    trace::AnalogTrace a;
    a.name = "v";
    a.samples = {{0.0, 1.0}, {1e-6, 2.0}};
    EXPECT_THROW(trace::writeAnalogCsv(kFullDisk, {&a}), std::runtime_error);
}

TEST(CheckedWrite, VcdThrowsOnFullDisk)
{
    if (!std::filesystem::exists(kFullDisk)) {
        GTEST_SKIP() << kFullDisk << " is absent";
    }
    trace::DigitalTrace d;
    d.name = "sig";
    d.events = {{10, digital::Logic::One}};
    EXPECT_THROW(trace::writeVcd(kFullDisk, {&d}, {}), std::runtime_error);
}

// Every whole-file reader goes through util::readFileOrThrow, so a path that
// cannot be read is an error naming the path, never an empty file.

/// Expects @p read to throw a std::runtime_error whose message names @p path.
template <typename Read>
void expectReadErrorNaming(const std::string& path, Read read)
{
    try {
        read();
        ADD_FAILURE() << "no error reading " << path;
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
    }
}

TEST(CheckedRead, DirectoryIsAReadError)
{
    // An ifstream on a directory reads as an empty file: an ingested
    // "netlist" used to report "declares no primary inputs" instead.
    const std::string dir = ::testing::TempDir() + "gfi_checked_read.bench";
    std::filesystem::create_directories(dir);
    expectReadErrorNaming(dir, [&] { (void)util::readFileOrThrow(dir, "test"); });
    expectReadErrorNaming(dir, [&] { (void)io::parseNetlistFile(dir); });
    expectReadErrorNaming(dir, [&] { (void)campaign::CampaignJournal::loadWithStats(dir); });
    std::filesystem::remove_all(dir);
}

TEST(CheckedRead, UnreadableFileIsAReadError)
{
    // Mode 000 stops every user but root. /proc/self/mem opens for anyone,
    // but its first page is unmapped, so fread itself fails (EIO).
    const std::string locked = ::testing::TempDir() + "gfi_checked_read_locked.txt";
    std::ofstream(locked) << "text";
    std::filesystem::permissions(locked, std::filesystem::perms::none);
    std::vector<std::string> unreadable;
    if (std::FILE* f = std::fopen(locked.c_str(), "rb")) {
        std::fclose(f);
    } else {
        unreadable.push_back(locked);
    }
    if (std::filesystem::exists("/proc/self/mem")) {
        unreadable.emplace_back("/proc/self/mem");
    }
    if (unreadable.empty()) {
        std::filesystem::remove(locked);
        GTEST_SKIP() << "no unreadable file on this system";
    }
    for (const std::string& path : unreadable) {
        expectReadErrorNaming(path, [&] { (void)util::readFileOrThrow(path, "test"); });
        expectReadErrorNaming(path, [&] { (void)io::parseNetlistFile(path); });
        expectReadErrorNaming(path,
                              [&] { (void)campaign::CampaignJournal::loadWithStats(path); });
    }
    std::filesystem::remove(locked);
}

TEST(CheckedRead, MissingFileIsAReadError)
{
    const std::string path = ::testing::TempDir() + "gfi_checked_read_missing.bench";
    std::filesystem::remove(path);
    expectReadErrorNaming(path, [&] { (void)util::readFileOrThrow(path, "test"); });
    expectReadErrorNaming(path, [&] { (void)io::parseNetlistFile(path); });
    // A missing journal is a fresh campaign, not an error.
    const campaign::CampaignJournal::LoadResult fresh =
        campaign::CampaignJournal::loadWithStats(path);
    EXPECT_TRUE(fresh.entries.empty());
    EXPECT_EQ(fresh.skippedLines, 0u);
}

TEST(CheckedRead, ReadsBytesVerbatim)
{
    const std::string path = ::testing::TempDir() + "gfi_checked_read_bytes.bin";
    std::string bytes;
    for (int i = 0; i < 200000; ++i) {
        bytes += static_cast<char>(i * 7 % 256); // NULs and '\r' included, > one chunk
    }
    std::ofstream(path, std::ios::binary) << bytes;
    EXPECT_EQ(util::readFileOrThrow(path, "test"), bytes);
    std::filesystem::remove(path);
}

} // namespace
} // namespace gfi
