#include "common/args.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace edsim {
namespace {

Args make(std::vector<const char*> argv,
          std::vector<std::string> bools = {},
          std::vector<std::string> known = {}) {
  argv.insert(argv.begin(), "prog");
  return Args(static_cast<int>(argv.size()), argv.data(), bools, known);
}

TEST(Args, KeyValuePairs) {
  const Args a = make({"--width", "256", "--preset", "edram"});
  EXPECT_TRUE(a.has("width"));
  EXPECT_EQ(a.get_u64("width", 0), 256u);
  EXPECT_EQ(a.get("preset"), "edram");
  EXPECT_EQ(a.get("missing", "dflt"), "dflt");
  EXPECT_EQ(a.get_u64("missing", 7), 7u);
}

TEST(Args, EqualsSyntax) {
  const Args a = make({"--width=512", "--ratio=0.5"});
  EXPECT_EQ(a.get_u64("width", 0), 512u);
  EXPECT_DOUBLE_EQ(a.get_double("ratio", 0.0), 0.5);
}

TEST(Args, PositionalCollected) {
  const Args a = make({"--k", "v", "file1", "file2"});
  EXPECT_EQ(a.positional(),
            (std::vector<std::string>{"file1", "file2"}));
}

TEST(Args, BooleanFlags) {
  const Args a = make({"--verbose", "input.txt"}, {"verbose"});
  EXPECT_TRUE(a.has("verbose"));
  EXPECT_EQ(a.positional().size(), 1u);
}

TEST(Args, HexNumbers) {
  const Args a = make({"--addr", "0x1000"});
  EXPECT_EQ(a.get_u64("addr", 0), 0x1000u);
}

TEST(Args, Errors) {
  EXPECT_THROW(make({"--width"}), ConfigError);       // missing value
  EXPECT_THROW(make({"--"}), ConfigError);            // bare dashes
  const Args a = make({"--n", "abc"});
  EXPECT_THROW(a.get_u64("n", 0), ConfigError);
  EXPECT_THROW(a.get_double("n", 0.0), ConfigError);
}

TEST(Args, RequireKnownRejectsUnknownOptions) {
  const std::vector<std::string> known = {"store", "wcet", "cache-stats"};
  EXPECT_NO_THROW(make({"--store", "x.edrs", "--wcet"}, {"wcet"}, known));
  // An unknown option is named whether it takes a value, ends the
  // command line with none, or uses the `--key=value` spelling.
  for (const std::vector<const char*>& argv :
       {std::vector<const char*>{"--workers", "4"},
        std::vector<const char*>{"--store", "x.edrs", "--workers"},
        std::vector<const char*>{"--workers=4"}}) {
    try {
      make(argv, {"wcet"}, known);
      FAIL() << "an unknown option must throw";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown option --workers"),
                std::string::npos)
          << e.what();
    }
  }
  // A known option without its value is still reported as such.
  try {
    make({"--store"}, {"wcet"}, known);
    FAIL() << "a missing value must throw";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("--store needs a value"),
              std::string::npos)
        << e.what();
  }
}

TEST(Args, ParseCommandLineReportsUsageErrors) {
  const auto parse = [](std::vector<const char*> argv) {
    argv.insert(argv.begin(), "prog");
    return parse_command_line(static_cast<int>(argv.size()), argv.data(),
                              "prog", "usage: prog\n", {"out", "fast"},
                              {"fast"}, /*max_positional=*/1);
  };
  const std::optional<Args> ok = parse({"--fast", "--out", "x", "in.txt"});
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->get("out"), "x");
  EXPECT_EQ(ok->positional().size(), 1u);
  testing::internal::CaptureStderr();
  EXPECT_FALSE(parse({"--bogus", "1"}).has_value());
  EXPECT_FALSE(parse({"a", "b"}).has_value());  // one positional at most
  EXPECT_FALSE(parse({"--out"}).has_value());   // missing value
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("prog: args: unknown option --bogus"), std::string::npos);
  EXPECT_NE(err.find("unexpected argument 'b'"), std::string::npos);
  EXPECT_NE(err.find("usage: prog"), std::string::npos);
}

}  // namespace
}  // namespace edsim
