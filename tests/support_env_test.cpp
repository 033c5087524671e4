// Env knobs are input from outside the process, so their parsing gets the
// same treatment as the other boundaries: every malformed value degrades to
// "unset" (the built-in default), never to a partially parsed number.
//   - env_int over hand-picked edge cases and a seeded property sweep
//     (every long long round-trips; any junk byte around it is rejected).
//   - FLIGHTNN_NUM_THREADS outside [1, 1024], or malformed, falls back to
//     hardware concurrency.

#include "support/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <thread>

#include "runtime/thread_pool.hpp"
#include "support/rng.hpp"

namespace flightnn {
namespace {

constexpr const char* kVar = "FLIGHTNN_ENV_TEST_KNOB";

// Sets (or, for nullopt, unsets) one variable for the scope of a test.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::optional<std::string>& value)
      : name_(name) {
    if (value) {
      ::setenv(name_, value->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

std::optional<long long> parse(const std::optional<std::string>& value) {
  const ScopedEnv env(kVar, value);
  return support::env_int(kVar);
}

TEST(SupportEnvTest, EnvIntEdgeCases) {
  EXPECT_EQ(parse(std::nullopt), std::nullopt) << "unset";
  EXPECT_EQ(parse(""), std::nullopt) << "empty";
  EXPECT_EQ(parse("4"), 4);
  EXPECT_EQ(parse("-1"), -1);
  EXPECT_EQ(parse(" 4"), std::nullopt) << "leading space";
  EXPECT_EQ(parse("4 "), std::nullopt) << "trailing space";
  EXPECT_EQ(parse("4x"), std::nullopt);
  EXPECT_EQ(parse("0x10"), std::nullopt) << "hex is not decimal";
  EXPECT_EQ(parse("99999999999999999999"), std::nullopt) << "overflow";
  EXPECT_EQ(parse("-99999999999999999999"), std::nullopt) << "underflow";
  EXPECT_EQ(parse("9223372036854775807"),
            std::numeric_limits<long long>::max());
  EXPECT_EQ(parse("-9223372036854775808"),
            std::numeric_limits<long long>::min());
}

TEST(SupportEnvTest, EnvIntRoundTripsAndRejectsJunk) {
  support::Rng rng(20261017);
  // A sign is a valid prefix, so only the suffix set carries one.
  const std::string prefix_junk = " x.\t";
  const std::string suffix_junk = " x.+-\t";
  for (int trial = 0; trial < 200; ++trial) {
    const auto value = static_cast<long long>(rng.next_u64());
    const std::string text = std::to_string(value);
    EXPECT_EQ(parse(text), value) << text;
    const std::string suffixed =
        text + suffix_junk[rng.uniform_index(suffix_junk.size())];
    EXPECT_EQ(parse(suffixed), std::nullopt) << "'" << suffixed << "'";
    const std::string prefixed =
        prefix_junk[rng.uniform_index(prefix_junk.size())] + text;
    EXPECT_EQ(parse(prefixed), std::nullopt) << "'" << prefixed << "'";
  }
}

int resolved_threads(const char* value) {
  const ScopedEnv env("FLIGHTNN_NUM_THREADS", std::string(value));
  runtime::set_num_threads(0);  // re-resolve from the environment
  return runtime::num_threads();
}

TEST(SupportEnvTest, NumThreadsOutsideRangeFallsBackToHardware) {
  const unsigned hw = std::thread::hardware_concurrency();
  const int hardware = hw == 0 ? 1 : static_cast<int>(hw);
  for (const char* bad :
       {"0", "-1", "1025", "99999999999999999999", "4x", " 4", "0x10"}) {
    EXPECT_EQ(resolved_threads(bad), hardware) << "'" << bad << "'";
  }
  EXPECT_EQ(resolved_threads("1"), 1);
  EXPECT_EQ(resolved_threads("3"), 3);
  EXPECT_EQ(resolved_threads("1024"), 1024);
  runtime::set_num_threads(1);
}

}  // namespace
}  // namespace flightnn
