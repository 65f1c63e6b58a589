// Unit tests for the common module: errors, RNG, timers, stats, grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <vector>

#include "common/error.h"
#include "common/grid.h"
#include "common/hash.h"
#include "common/log.h"
#include "common/record_file.h"
#include "obs/json.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/timer.h"

namespace ldmo {
namespace {

TEST(Error, RaiseThrowsWithMessage) {
  try {
    raise("boom");
    FAIL() << "raise did not throw";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

TEST(Error, RequirePassesOnTrue) { EXPECT_NO_THROW(require(true, "ok")); }

TEST(Error, RequireThrowsOnFalse) {
  EXPECT_THROW(require(false, "bad"), Error);
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(11);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(2, 5));
  EXPECT_EQ(seen, (std::set<int>{2, 3, 4, 5}));
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(5, 2), Error);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(3);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(5);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(9);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Stats, MeanAndStddev) {
  const std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_NEAR(stddev(v), std::sqrt(1.25), 1e-12);
}

TEST(Stats, MeanOfEmptyIsZero) { EXPECT_DOUBLE_EQ(mean({}), 0.0); }

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(ZScore, TransformStandardizes) {
  ZScoreNormalizer z;
  z.fit({2, 4, 6, 8});
  EXPECT_NEAR(z.transform(5.0), 0.0, 1e-12);
  // Round trip.
  EXPECT_NEAR(z.inverse(z.transform(7.3)), 7.3, 1e-12);
}

TEST(ZScore, DegenerateFitMapsToZero) {
  ZScoreNormalizer z;
  z.fit({5, 5, 5});
  EXPECT_DOUBLE_EQ(z.transform(5.0), 0.0);
  EXPECT_DOUBLE_EQ(z.transform(100.0), 0.0);
}

TEST(ZScore, TransformBeforeFitThrows) {
  ZScoreNormalizer z;
  EXPECT_THROW(z.transform(1.0), Error);
}

TEST(ZScore, FitEmptyThrows) {
  ZScoreNormalizer z;
  EXPECT_THROW(z.fit({}), Error);
}

TEST(Spearman, PerfectMonotoneIsOneEvenWhenNonlinear) {
  // Rank correlation sees through monotone warps — the property the
  // flywheel's promotion gate relies on (predictor scores drift in scale
  // while ranking correctly).
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> exp_x = {2.7, 7.4, 20.1, 54.6, 148.4};
  EXPECT_DOUBLE_EQ(spearman_rank_correlation(x, exp_x), 1.0);
  const std::vector<double> reversed = {5, 4, 3, 2, 1};
  EXPECT_DOUBLE_EQ(spearman_rank_correlation(x, reversed), -1.0);
}

TEST(Spearman, TiesGetAverageRanks) {
  // Textbook worked example: one tied pair in each sample.
  const std::vector<double> a = {1, 2, 2, 4};
  const std::vector<double> b = {1, 3, 3, 2};
  // ranks(a) = {1, 2.5, 2.5, 4}, ranks(b) = {1, 3.5, 3.5, 2}; Pearson of
  // those rank vectors: cov 1.5 / (sqrt(4.5) * sqrt(4.5)) = 1/3.
  EXPECT_NEAR(spearman_rank_correlation(a, b), 1.0 / 3.0, 1e-12);
}

TEST(Spearman, DegenerateInputsAreZeroNotNan) {
  EXPECT_DOUBLE_EQ(spearman_rank_correlation({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(spearman_rank_correlation({1.0}, {2.0}), 0.0);
  // Zero rank variance (all tied) on either side.
  EXPECT_DOUBLE_EQ(spearman_rank_correlation({3, 3, 3}, {1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(spearman_rank_correlation({1, 2, 3}, {7, 7, 7}), 0.0);
}

TEST(Spearman, UncorrelatedPermutationIsBetweenBounds) {
  const std::vector<double> a = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<double> b = {3, 8, 1, 6, 2, 7, 4, 5};
  const double rho = spearman_rank_correlation(a, b);
  EXPECT_GT(rho, -1.0);
  EXPECT_LT(rho, 1.0);
}

TEST(PhaseTimer, AccumulatesAndFractions) {
  PhaseTimer timer;
  timer.add("ds", 3.0);
  timer.add("mo", 1.0);
  timer.add("ds", 1.0);
  EXPECT_DOUBLE_EQ(timer.get("ds"), 4.0);
  EXPECT_DOUBLE_EQ(timer.total(), 5.0);
  EXPECT_DOUBLE_EQ(timer.fraction("ds"), 0.8);
  EXPECT_DOUBLE_EQ(timer.get("missing"), 0.0);
}

TEST(PhaseTimer, EmptyTotalsZero) {
  PhaseTimer timer;
  EXPECT_DOUBLE_EQ(timer.total(), 0.0);
  EXPECT_DOUBLE_EQ(timer.fraction("x"), 0.0);
}

TEST(Timer, MeasuresNonNegativeElapsed) {
  Timer t;
  EXPECT_GE(t.seconds(), 0.0);
  t.reset();
  EXPECT_GE(t.seconds(), 0.0);
}

TEST(Grid, ShapeAndFill) {
  GridF g(3, 4, 1.5);
  EXPECT_EQ(g.height(), 3);
  EXPECT_EQ(g.width(), 4);
  EXPECT_EQ(g.size(), 12u);
  EXPECT_DOUBLE_EQ(g.at(2, 3), 1.5);
  g.fill(0.0);
  EXPECT_DOUBLE_EQ(g.at(0, 0), 0.0);
}

TEST(Grid, RowMajorLinearAccess) {
  GridF g(2, 3);
  g.at(1, 2) = 7.0;
  EXPECT_DOUBLE_EQ(g[1 * 3 + 2], 7.0);
}

TEST(Grid, InBounds) {
  GridF g(2, 2);
  EXPECT_TRUE(g.in_bounds(0, 0));
  EXPECT_TRUE(g.in_bounds(1, 1));
  EXPECT_FALSE(g.in_bounds(2, 0));
  EXPECT_FALSE(g.in_bounds(0, -1));
}

TEST(Grid, SameShapeComparison) {
  GridF a(2, 3), b(2, 3), c(3, 2);
  EXPECT_TRUE(a.same_shape(b));
  EXPECT_FALSE(a.same_shape(c));
}

// --- FNV-1a hashing (common/hash.h) ---

TEST(Hash, Fnv1aReferenceVectors) {
  // Classic 64-bit FNV-1a test vectors.
  EXPECT_EQ(common::fnv1a(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(common::fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(common::fnv1a("foobar"), 0x85944171f73967e8ull);
}

TEST(Hash, Fnv1aBytesMatchesStringView) {
  const char data[] = {'f', 'o', 'o'};
  EXPECT_EQ(common::fnv1a(data, 3), common::fnv1a("foo"));
}

TEST(Hash, ChainedFeedsAreOrderSensitive) {
  const std::uint64_t ab = common::Fnv1a().u64(1).u64(2).digest();
  const std::uint64_t ba = common::Fnv1a().u64(2).u64(1).digest();
  EXPECT_NE(ab, ba);
}

TEST(Hash, StringFeedIsLengthPrefixed) {
  // Without a length prefix "ab"+"c" and "a"+"bc" would collide.
  const std::uint64_t split1 = common::Fnv1a().str("ab").str("c").digest();
  const std::uint64_t split2 = common::Fnv1a().str("a").str("bc").digest();
  EXPECT_NE(split1, split2);
}

TEST(Hash, DoubleFeedIsBitExact) {
  // -0.0 == 0.0 numerically but differs bitwise; the hash must see bits.
  const std::uint64_t pos = common::Fnv1a().f64(0.0).digest();
  const std::uint64_t neg = common::Fnv1a().f64(-0.0).digest();
  EXPECT_NE(pos, neg);
  EXPECT_EQ(common::Fnv1a().f64(1.5).digest(),
            common::Fnv1a().f64(1.5).digest());
}

TEST(Hash, SignedFeedDistinguishesNegatives) {
  EXPECT_NE(common::Fnv1a().i64(-1).digest(),
            common::Fnv1a().i64(1).digest());
}

// --- XXH64 (common/hash.h) ---

/// n bytes of b[i] = (i * 131 + 7) & 0xff.
std::vector<std::uint8_t> xxh_pattern(std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  for (std::size_t i = 0; i < n; ++i)
    bytes[i] = static_cast<std::uint8_t>(i * 131 + 7);
  return bytes;
}

std::uint64_t xxh64_of(const std::vector<std::uint8_t>& bytes) {
  return common::xxh64(bytes.data(), bytes.size());
}

TEST(Hash, Xxh64ReferenceVectors) {
  // The reference implementation's digests (seed 0); zstd's frame checksum
  // is the low 32 bits of the same hash.
  EXPECT_EQ(common::xxh64(nullptr, 0), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(common::xxh64("abc", 3), 0x44BC2CF5AD770999ull);
  EXPECT_EQ(xxh64_of(xxh_pattern(37)), 0x1D8C3A2215085739ull);
  EXPECT_EQ(xxh64_of(xxh_pattern(100)), 0x9DDADA11D3DC2D8Full);
  EXPECT_EQ(xxh64_of(xxh_pattern(100560)), 0xC50DCECACF7ADC04ull);
}

TEST(Hash, Xxh64EveryLengthUpToTwoStripesAndATail) {
  // Lengths 0-67 of the pattern: below and above the 32-byte stripe loop,
  // two stripes, and every 8-, 4- and 1-byte tail after each.
  constexpr std::uint64_t kExpected[68] = {
      0xEF46DB3751D8E999ull, 0xA96C7F0CE858BBB7ull, 0xC22C6A70AD56BBA6ull,
      0xBED43740EE6332BBull, 0xFA212AE44B3BB23Dull, 0xD339DCC9AC8E6776ull,
      0x71CABDC85DA7FFA0ull, 0x2744460DD675D2C0ull, 0x994B676B71CE94DDull,
      0x572B84C18B983AF8ull, 0x08283FD40EE4F8C9ull, 0x97F078DA7A1A590Cull,
      0xB92F588CE720786Eull, 0xDADC8A6255B4829Bull, 0x574269377227D80Aull,
      0x09E6451ED2FF8B1Dull, 0x94AD0095E72B24D5ull, 0x1464F2EFF23B5FE1ull,
      0x712C39F6D1ED935Eull, 0x83EF9C758393E89Dull, 0x67822FA80E0C8933ull,
      0xFA6DE19E99FF8D43ull, 0xA8D0AE04D79885F2ull, 0xCF65B69586B05FABull,
      0x0A3B0194F3AFE0B8ull, 0xE0FD072FFF811C86ull, 0xC4F7372A7FB8F247ull,
      0xFEE26CAC05AEECF0ull, 0x01A6F3D224FA7D3Bull, 0x161A3BC98AFCF092ull,
      0x3F8796D7BFAAAA08ull, 0x6711D55E306B5D8Full, 0x07F7B8E3BC5D6E25ull,
      0x09F85EEB4E1CBE9Full, 0x35284E7F91DD1AE5ull, 0x25CC31E4544BC8C9ull,
      0xE7AC625222F2B655ull, 0x1D8C3A2215085739ull, 0x1FB3064ED36C675Full,
      0xB13C137A0FB701C3ull, 0xD25150177BA46490ull, 0x3AD8BB2779D9285Eull,
      0xFE4DDAB6E3D75DDCull, 0x9D340603AA03CC62ull, 0xD02B2028C27A5329ull,
      0xFF59426B0066066Bull, 0x713A114207F600E2ull, 0x79BD9D6DD8C15570ull,
      0x2947DE5E3A6AFECEull, 0x43F1E784039912D3ull, 0x072FA9968401E9C7ull,
      0xC3C4FF0D8F66E206ull, 0x0EFBC3939FA05814ull, 0x42BE842D0902D7A7ull,
      0x8A78B907C424DC46ull, 0x8F8DC5B07F6D48EDull, 0xA2ACF5B431DB2E52ull,
      0x403200F5D0354116ull, 0xC326A3D65678339Bull, 0xA53B8E5BC9FF65A4ull,
      0x4CCE586D8ACA19E5ull, 0xBD3BD33486AF6DC6ull, 0x4149DD403B20A2DCull,
      0xB7C9968C066CB6A5ull, 0x50D4159A0411632Eull, 0xD277176BFF863EFCull,
      0x578BA93DAAAA4333ull, 0x5C44AB49F377E73Full,
  };
  const std::vector<std::uint8_t> bytes = xxh_pattern(68);
  for (std::size_t n = 0; n < 68; ++n) {
    // An odd start address too: words are loaded unaligned.
    std::vector<std::uint8_t> shifted(n + 1);
    std::copy(bytes.begin(), bytes.begin() + static_cast<long>(n),
              shifted.begin() + 1);
    EXPECT_EQ(common::xxh64(bytes.data(), n), kExpected[n]) << "length " << n;
    EXPECT_EQ(common::xxh64(shifted.data() + 1, n), kExpected[n])
        << "length " << n << " at an odd address";
  }
}

TEST(Log, ParseLogLevelNamesAndFallback) {
  EXPECT_EQ(parse_log_level("DEBUG", LogLevel::Off), LogLevel::Debug);
  EXPECT_EQ(parse_log_level("warning", LogLevel::Off), LogLevel::Warn);
  EXPECT_EQ(parse_log_level("bogus", LogLevel::Error), LogLevel::Error);
}

TEST(Log, TextFormatLine) {
  const LogFormat saved = log_format();
  set_log_format(LogFormat::Text);
  const std::string line =
      detail::format_log_line(LogLevel::Warn, "disk almost full");
  set_log_format(saved);
  // "[<iso8601>] [WARN] disk almost full"
  EXPECT_EQ(line.front(), '[');
  EXPECT_NE(line.find("] [WARN] disk almost full"), std::string::npos);
}

TEST(Log, JsonFormatLineIsParseableAndEscaped) {
  const LogFormat saved = log_format();
  set_log_format(LogFormat::Json);
  const std::string line = detail::format_log_line(
      LogLevel::Error, "bad \"input\"\nsecond line");
  set_log_format(saved);
  const obs::JsonValue doc = obs::parse_json(line);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("level")->string, "error");
  EXPECT_EQ(doc.find("msg")->string, "bad \"input\"\nsecond line");
  EXPECT_FALSE(doc.find("ts")->string.empty());
  // One object per line: embedded newlines in the message must not break
  // line-oriented consumers.
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

// --- record_file ------------------------------------------------------------

std::string record_path(const std::string& name) {
  return ::testing::TempDir() + "ldmo_record_file_" + name;
}

std::vector<std::uint8_t> text_bytes(std::string_view text) {
  return {text.begin(), text.end()};
}

TEST(RecordFile, ReplaceFileSwapsTheWholeFile) {
  const std::string path = record_path("replace.bin");
  common::replace_file(path, [](std::ostream& out) { out << "first"; });
  common::replace_file(path, [](std::ostream& out) { out << "second"; });
  EXPECT_EQ(common::read_file(path), text_bytes("second"));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_THROW(common::read_file(record_path("missing.bin")), Error);
}

TEST(RecordFile, FailedReplaceKeepsTheOldFileAndLeavesNoTmp) {
  const std::string path = record_path("replace_fail.bin");
  common::replace_file(path, [](std::ostream& out) { out << "incumbent"; });
  const auto expect_kept = [&] {
    EXPECT_EQ(common::read_file(path), text_bytes("incumbent"));
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  };
  // The writer throws half way.
  EXPECT_THROW(common::replace_file(path,
                                    [](std::ostream& out) {
                                      out << "half";
                                      raise("writer failed");
                                    }),
               Error);
  expect_kept();
  // The stream fails.
  EXPECT_THROW(common::replace_file(path,
                                    [](std::ostream& out) {
                                      out << "half";
                                      out.setstate(std::ios::badbit);
                                    }),
               Error);
  expect_kept();
  // The tmp file cannot be created.
  const std::string orphan = record_path("no_such_dir/x.bin");
  EXPECT_THROW(
      common::replace_file(orphan, [](std::ostream& out) { out << "x"; }),
      Error);
  // The rename fails: the target is a directory.
  const std::string dir = record_path("replace_dir");
  std::filesystem::create_directory(dir);
  EXPECT_THROW(common::replace_file(dir, [](std::ostream& out) { out << "x"; }),
               Error);
  EXPECT_FALSE(std::filesystem::exists(dir + ".tmp"));
  std::filesystem::remove(dir);
}

std::size_t test_payload_bytes(std::uint32_t dimension) { return dimension; }

constexpr common::RecordLogFormat kTestLog{"LDMOTST1", "test log",
                                           test_payload_bytes};
constexpr std::size_t kLogHeader = 12;
constexpr std::size_t kLogRecord = 8 + 8;  // dimension 8 + checksum

std::vector<std::byte> test_payload(int k) {
  std::vector<std::byte> payload(8);
  for (int i = 0; i < 8; ++i) payload[i] = static_cast<std::byte>(10 * k + i);
  return payload;
}

std::vector<std::vector<std::byte>> read_log(const std::string& path,
                                             common::RecordLogInfo& info) {
  std::vector<std::vector<std::byte>> records;
  info = common::read_record_log(path, kTestLog,
                                 [&](std::span<const std::byte> payload) {
                                   records.emplace_back(payload.begin(),
                                                        payload.end());
                                 });
  return records;
}

std::string fresh_log(const std::string& name, int records) {
  const std::string path = record_path(name);
  std::remove(path.c_str());
  common::RecordLogWriter writer(path, kTestLog, 8);
  for (int k = 0; k < records; ++k) writer.append({test_payload(k)});
  return path;
}

void flip_byte(const std::string& path, std::size_t offset) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekg(static_cast<std::streamoff>(offset));
  const char c = static_cast<char>(file.get());
  file.seekp(static_cast<std::streamoff>(offset));
  file.put(static_cast<char>(c ^ 0x5A));
}

TEST(RecordLog, RoundTripsAndValidatesTheHeader) {
  const std::string path = fresh_log("roundtrip.log", 1);
  {
    // A payload may arrive in parts; they are one record on disk.
    const std::vector<std::byte> payload = test_payload(1);
    common::RecordLogWriter writer(path, kTestLog, 8);
    writer.append({std::span(payload).first(3), std::span(payload).subspan(3)});
    EXPECT_THROW(writer.append({std::span(payload).first(7)}), Error);
  }
  EXPECT_EQ(std::filesystem::file_size(path), kLogHeader + 2 * kLogRecord);
  common::RecordLogInfo info;
  const auto records = read_log(path, info);
  EXPECT_EQ(info.dimension, 8u);
  EXPECT_EQ(info.records, 2u);
  EXPECT_FALSE(info.torn_tail);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], test_payload(0));
  EXPECT_EQ(records[1], test_payload(1));
  EXPECT_EQ(common::record_log_shape(path, kTestLog).records, 2u);

  EXPECT_THROW(common::RecordLogWriter(path, kTestLog, 16), Error);
  constexpr common::RecordLogFormat kOther{"LDMOXXX1", "other log",
                                           test_payload_bytes};
  EXPECT_THROW(common::RecordLogWriter(path, kOther, 8), Error);
  EXPECT_THROW(common::record_log_shape(path, kOther), Error);
  EXPECT_THROW(common::RecordLogWriter(record_path("tiny.log"), kTestLog, 4),
               Error);
}

TEST(RecordLog, WriterCutsAPartialTailAndAChecksumFailedFinalRecord) {
  const std::string path = fresh_log("torn.log", 3);
  // A crash mid-append: the file ends 5 bytes into record 3.
  std::filesystem::resize_file(path, kLogHeader + 2 * kLogRecord + 5);
  const common::RecordLogInfo shape =
      common::record_log_shape(path, kTestLog);
  EXPECT_EQ(shape.records, 2u);
  EXPECT_TRUE(shape.torn_tail);
  common::RecordLogInfo info;
  EXPECT_EQ(read_log(path, info).size(), 2u);
  EXPECT_TRUE(info.torn_tail);
  { common::RecordLogWriter writer(path, kTestLog, 8); }
  EXPECT_EQ(std::filesystem::file_size(path), kLogHeader + 2 * kLogRecord);

  // A torn append that ended on a record boundary: the final record is
  // whole but fails its checksum.
  flip_byte(path, kLogHeader + kLogRecord + 3);
  EXPECT_EQ(read_log(path, info).size(), 1u);
  EXPECT_TRUE(info.torn_tail);
  common::RecordLogWriter(path, kTestLog, 8).append({test_payload(7)});
  const auto records = read_log(path, info);
  EXPECT_FALSE(info.torn_tail);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], test_payload(0));
  EXPECT_EQ(records[1], test_payload(7));
}

TEST(RecordLog, EarlierChecksumFailureThrows) {
  for (std::size_t record : {0u, 1u}) {
    const std::string path = fresh_log("rot.log", 3);
    flip_byte(path, kLogHeader + record * kLogRecord + 2);
    common::RecordLogInfo info;
    EXPECT_THROW(read_log(path, info), Error) << "record " << record;
  }
}

}  // namespace
}  // namespace ldmo
