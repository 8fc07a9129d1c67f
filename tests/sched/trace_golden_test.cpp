// Golden trace fixtures (tests/data): committed recordings must parse,
// re-print byte-identically, carry checksums the host oracle reproduces,
// and the malformed fixtures must fail with typed errors — guarding the
// on-disk format against accidental drift.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "sched/trace_io.hpp"

namespace polymem::sched {
namespace {

std::string data_path(const std::string& name) {
  return std::string(POLYMEM_TEST_DATA_DIR) + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class GoldenTrace : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenTrace, ParsesAndReprintsByteIdentically) {
  const std::string path = data_path(GetParam());
  const RecordedTrace trace = parse_trace_file(path);
  EXPECT_FALSE(trace.ops.empty());
  // The committed fixtures contain no comments, so print(parse(x)) == x.
  EXPECT_EQ(trace_to_string(trace), slurp(path));
}

TEST_P(GoldenTrace, ChecksumsMatchTheHostOracle) {
  const RecordedTrace trace = parse_trace_file(data_path(GetParam()));
  const HostReplay host = host_replay(trace);
  ASSERT_EQ(host.checksums.size(), trace.ops.size());
  for (std::size_t k = 0; k < trace.ops.size(); ++k) {
    ASSERT_TRUE(trace.ops[k].checksum.has_value()) << "op " << k;
    EXPECT_EQ(host.checksums[k], *trace.ops[k].checksum) << "op " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Fixtures, GoldenTrace,
                         ::testing::Values("transpose_8x8.trace",
                                           "histogram_16bins.trace",
                                           "phase_change_64x64.trace"),
                         [](const auto& info) {
                           std::string name = info.param;
                           return name.substr(0, name.find('.'));
                         });

TEST(GoldenTrace, MalformedFixturesRaiseTypedErrors) {
  EXPECT_THROW(parse_trace_file(data_path("malformed_missing_anchor.trace")),
               TraceParseError);
  EXPECT_THROW(parse_trace_file(data_path("malformed_bad_checksum.trace")),
               TraceParseError);
  try {
    parse_trace_file(data_path("malformed_missing_anchor.trace"));
  } catch (const TraceParseError& e) {
    EXPECT_EQ(e.line(), 5);
  }
  // x(2^62 + 1) step 0,4: the last anchor's j wraps int64 back to 0.
  EXPECT_THROW(parse_trace_file(data_path("malformed_count_overflow.trace")),
               TraceParseError);
  try {
    parse_trace_file(data_path("malformed_count_overflow.trace"));
  } catch (const TraceParseError& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

}  // namespace
}  // namespace polymem::sched
