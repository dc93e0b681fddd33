// Per-plane fingerprint goldens. determinism_test.cpp pins one flat
// scenario; this table pins one small run per protocol plane that the flat
// run never reaches — hierarchy under loss, aggregator-targeted churn (the
// cold-restart REGION_PULL flood), the overload storm under loss and churn
// (bid suppression, REJECT and shed-and-forward), self-healing under churn,
// and the defended adversary cocktail (poisoned digests and the clamp). Each
// row pins the FNV-1a 64 digest of run_fingerprint, which covers every job
// lifecycle, every per-type traffic total and every plane counter: a change
// that reorders one send, RNG draw or timer in any of these paths moves a
// digest. A deliberate behaviour change re-pins the table and says why.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "workload/cli.hpp"
#include "workload/engine.hpp"

namespace aria::workload {
namespace {

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

struct PlaneGolden {
  const char* plane;
  std::vector<std::string> args;  // aria_sim flags
  std::uint64_t digest;
};

TEST(PlaneGoldens, FingerprintDigestsArePinned) {
  const std::vector<PlaneGolden> table = {
      {"hierarchy+loss",
       {"--nodes", "300", "--jobs", "100", "--horizon", "600", "--hierarchy",
        "--loss", "0.01", "--seed", "1"},
       0x9923E1B4FF5DD370ULL},
      {"hierarchy+target-churn",
       {"--nodes", "300", "--jobs", "100", "--horizon", "600", "--hierarchy",
        "--target-churn", "2", "--seed", "1"},
       0xE59B85BDF5300844ULL},
      {"overload-storm+loss+churn",
       {"--nodes", "30", "--jobs", "80", "--overload", "--storm", "0,20,6",
        "--loss", "0.05", "--churn", "--seed", "5"},
       0x592D8261683DA8DCULL},
      {"overload-shed+loss+churn",
       {"--nodes", "30", "--jobs", "80", "--overload", "--queue-cap", "1",
        "--storm", "0,20,6", "--loss", "0.05", "--churn", "--seed", "1"},
       0xF58643A81B1BF0DDULL},
      {"healing+churn",
       {"--nodes", "100", "--jobs", "100", "--horizon", "600", "--healing",
        "--churn", "--seed", "1"},
       0x323D5F9AF68D2C45ULL},
      {"hierarchy+adversaries+defenses",
       {"--nodes", "300", "--jobs", "100", "--horizon", "600", "--hierarchy",
        "--regions", "10", "--adversaries", "0.1", "--defenses", "--seed",
        "3"},
       0x76CF08CE86B20C4EULL},
  };
  for (const PlaneGolden& g : table) {
    CliOptions options;
    ASSERT_FALSE(parse_cli(g.args, options).has_value()) << g.plane;
    const RunResult r = run_scenario(resolve_scenario(options), options.seed);
    const std::uint64_t digest = fnv1a64(run_fingerprint(r));
    EXPECT_EQ(digest, g.digest)
        << g.plane << ": 0x" << std::hex << digest;
  }
}

}  // namespace
}  // namespace aria::workload
