// Golden-table regression suite: every table bench is compiled into this
// binary (bench/*.cpp built with -DVIBE_BENCH_LIBRARY register their
// entry point instead of defining main) and re-run in-process, with
// stdout captured and diffed byte-for-byte against tests/golden/<name>.txt.
//
// Each bench runs at jobs in {1, 4} (serial vs the sweep harness's
// thread pool) and at sim shards in {1, 2, 7, hw}. The three benches that
// read VIBE_SIM_SHARDS (through bench::simShards(), registered with
// VIBE_BENCH_MAIN_SHARDED) run the whole cross product. The other 21 vary
// one axis at a time from jobs 1, shards 1: jobs 4 at shards 1, and
// shards 2, 7 and hw at jobs 1. The read check below sees only
// bench::simShards(); their shards cases show that no other path (a
// ShardedEngine left at its shardCount() default, say) reaches their
// output. 3 x 8 + 21 x 5 = 129 cases. The suite pins three properties at
// once: the tables themselves (any change to simulated numbers or
// formatting must regenerate the goldens in the same commit), the
// harness guarantee that worker count never leaks into output, and the
// PDES guarantee that the within-simulation shard count never does
// either (the two parallelism dimensions must not interact).
//
// The registration is checked: each case counts the bench's
// bench::simShards() calls and fails, naming the bench, when a
// VIBE_BENCH_MAIN bench reads the shard count or a
// VIBE_BENCH_MAIN_SHARDED one never does.
//
// When VIBE_SIM_SHARDS is already set in the environment, only the
// sharded benches run, with the shards axis pinned to that value: the
// pdes-tsan CI job uses this to run them at 4 shards (6 cases).
//
// Each case runs hermetically in a private mkdtemp directory that holds
// the stdout capture and any BENCH_*.json side file the bench writes into
// its working directory, and is removed afterwards; goldens are read
// through the absolute VIBE_GOLDEN_DIR. Concurrent golden processes
// (ctest -j) therefore never share a file.
//
// Regenerate after an intentional table change with:
//   ./tests/test_golden --update-golden
// The goldens are captured with VIBE_JSON=1, so the schema-2 JSON blocks
// are under regression too; gbench_* binaries are wall-clock and are
// deliberately not part of this suite.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "bench_registry.hpp"

namespace {

const std::string kGoldenDir = VIBE_GOLDEN_DIR;

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void writeFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  ASSERT_TRUE(out.good()) << "cannot write " << path;
}

/// A private working directory for one golden case, entered on
/// construction; on destruction the previous directory is restored and
/// this one removed with everything in it.
class ScratchDir {
 public:
  ScratchDir() : prev_(std::filesystem::current_path()) {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "vibe_golden.XXXXXX")
            .string();
    if (mkdtemp(tmpl.data()) == nullptr) {
      throw std::filesystem::filesystem_error(
          "mkdtemp", tmpl, std::error_code(errno, std::generic_category()));
    }
    path_ = tmpl;
    std::filesystem::current_path(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::current_path(prev_, ec);
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path prev_;
  std::filesystem::path path_;
};

/// Runs a registered bench entry point with stdout redirected into the
/// file `capture` and returns everything it printed. printf-based output
/// only, so fd-level redirection (dup2) catches it all.
std::string captureBench(vibe::bench::BenchFn fn, const std::string& capture,
                         int& rc) {
  std::fflush(stdout);
  const int saved = dup(STDOUT_FILENO);
  const int fd = open(capture.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  EXPECT_GE(saved, 0);
  EXPECT_GE(fd, 0);
  dup2(fd, STDOUT_FILENO);
  close(fd);
  char arg0[] = "bench";
  char* argv[] = {arg0, nullptr};
  int argc = 1;
  rc = fn(argc, argv);
  std::fflush(stdout);
  dup2(saved, STDOUT_FILENO);
  close(saved);
  return readFile(capture);
}

/// First differing line between two blobs, for a failure message that
/// points at the change instead of dumping two whole tables.
std::string firstDiff(const std::string& want, const std::string& got) {
  std::istringstream w(want);
  std::istringstream g(got);
  std::string wl;
  std::string gl;
  int line = 0;
  while (true) {
    ++line;
    const bool haveW = static_cast<bool>(std::getline(w, wl));
    const bool haveG = static_cast<bool>(std::getline(g, gl));
    if (!haveW && !haveG) return "(identical?)";
    if (wl != gl || haveW != haveG) {
      std::ostringstream ss;
      ss << "line " << line << ":\n  golden: "
         << (haveW ? wl : std::string("<end of file>"))
         << "\n  actual: " << (haveG ? gl : std::string("<end of file>"));
      return ss.str();
    }
  }
}

/// The key skeleton of a BENCH_*.json file: every quoted string that is
/// followed by a colon, in order. Values are covered by the table goldens;
/// this pins the schema-2 shape consumers parse.
std::vector<std::string> jsonKeys(const std::string& text) {
  std::vector<std::string> keys;
  std::size_t pos = 0;
  while ((pos = text.find('"', pos)) != std::string::npos) {
    const std::size_t end = text.find('"', pos + 1);
    if (end == std::string::npos) break;
    std::size_t after = end + 1;
    while (after < text.size() &&
           (text[after] == ' ' || text[after] == '\t')) {
      ++after;
    }
    if (after < text.size() && text[after] == ':') {
      keys.push_back(text.substr(pos + 1, end - pos - 1));
    }
    pos = end + 1;
  }
  return keys;
}

class GoldenTableTest : public ::testing::Test {
 public:
  GoldenTableTest(vibe::bench::BenchInfo info, unsigned jobs,
                  std::string shards, bool update)
      : info_(std::move(info)),
        jobs_(jobs),
        shards_(std::move(shards)),
        update_(update) {}

  void TestBody() override {
    setenv("VIBE_JOBS", std::to_string(jobs_).c_str(), 1);
    if (shards_.empty()) {
      unsetenv("VIBE_SIM_SHARDS");  // hardware default
    } else {
      setenv("VIBE_SIM_SHARDS", shards_.c_str(), 1);
    }
    const ScratchDir scratch;  // the bench's working directory
    int rc = -1;
    const std::uint64_t readsBefore = vibe::bench::shardReads();
    const std::string out =
        captureBench(info_.fn, scratch.file("capture.txt"), rc);
    EXPECT_EQ(rc, 0) << info_.name << " returned nonzero";
    const bool readShards = vibe::bench::shardReads() != readsBefore;
    EXPECT_EQ(readShards, info_.readsShards)
        << "bench " << info_.name
        << (readShards ? " calls bench::simShards() but is registered with "
                         "VIBE_BENCH_MAIN; register it with "
                         "VIBE_BENCH_MAIN_SHARDED"
                       : " is registered with VIBE_BENCH_MAIN_SHARDED but "
                         "never calls bench::simShards()");

    const std::string goldenPath = kGoldenDir + "/" + info_.name + ".txt";
    if (update_) {
      writeFile(goldenPath, out);
      updateJsonSkeleton();
      return;
    }
    const std::string want = readFile(goldenPath);
    ASSERT_FALSE(want.empty())
        << "missing golden " << goldenPath
        << " — run ./tests/test_golden --update-golden";
    EXPECT_EQ(want, out) << "bench " << info_.name << " at VIBE_JOBS="
                         << jobs_ << " VIBE_SIM_SHARDS="
                         << (shards_.empty() ? "<hw>" : shards_)
                         << " diverged from golden; first diff at "
                         << firstDiff(want, out)
                         << "\nIf the change is intentional, regenerate "
                            "with ./tests/test_golden --update-golden";
    checkJsonSkeleton();
  }

 private:
  /// Benches that write BENCH_<name>.json (into the cwd, the case's
  /// scratch directory) additionally get their key skeleton pinned in
  /// tests/golden/BENCH_<name>.keys.
  std::string jsonPath() const { return "BENCH_" + info_.name + ".json"; }
  std::string skeletonPath() const {
    return kGoldenDir + "/BENCH_" + info_.name + ".keys";
  }

  void updateJsonSkeleton() {
    const std::string json = readFile(jsonPath());
    if (json.empty()) return;  // this bench does not emit a JSON file
    std::ostringstream ss;
    for (const std::string& k : jsonKeys(json)) ss << k << "\n";
    writeFile(skeletonPath(), ss.str());
  }

  void checkJsonSkeleton() {
    const std::string want = readFile(skeletonPath());
    if (want.empty()) return;  // no skeleton golden for this bench
    const std::string json = readFile(jsonPath());
    ASSERT_FALSE(json.empty()) << jsonPath() << " was not written";
    std::ostringstream ss;
    for (const std::string& k : jsonKeys(json)) ss << k << "\n";
    EXPECT_EQ(want, ss.str())
        << "key skeleton of " << jsonPath() << " changed; first diff at "
        << firstDiff(want, ss.str());
  }

  vibe::bench::BenchInfo info_;
  unsigned jobs_;
  std::string shards_;  // VIBE_SIM_SHARDS value; empty = unset (hardware)
  bool update_;
};

/// Shard-axis variants of one bench, as (env value, test-name label)
/// pairs. An empty env value means "unset" — let the PDES default to
/// hardware_concurrency. The axis sweeps serial, even, prime-and-ragged
/// and the hardware default, or only `pinned` (a VIBE_SIM_SHARDS the
/// caller exported, the pdes-tsan CI contract). A bench that does not
/// read the shard count does not run at all when pinned.
std::vector<std::pair<std::string, std::string>> shardVariants(
    bool readsShards, const char* pinned, bool update) {
  if (update) return {{"1", ""}};
  if (pinned != nullptr) {
    if (!readsShards) return {};
    std::string label = "pin";
    for (const char* p = pinned; *p; ++p) {
      if (std::isalnum(static_cast<unsigned char>(*p))) label += *p;
    }
    return {{pinned, "_shards" + label}};
  }
  return {{"1", "_shards1"},
          {"2", "_shards2"},
          {"7", "_shards7"},
          {"", "_shardshw"}};
}

}  // namespace

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  bool update = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--update-golden") update = true;
  }

  // The goldens are captured with the JSON blocks on and everything else
  // at its default, so a stray environment doesn't shift the baseline.
  setenv("VIBE_JSON", "1", 1);
  unsetenv("VIBE_CSV");
  unsetenv("VIBE_STATS");
  unsetenv("VIBE_TRACE_OUT");
  unsetenv("VIBE_CHAOS_SEEDS");  // soak-only sweep, absent from goldens
  unsetenv("VIBE_FLIGHT_OUT");

  const char* pinned = std::getenv("VIBE_SIM_SHARDS");
  if (pinned != nullptr && *pinned == '\0') pinned = nullptr;
  const std::vector<unsigned> jobVariants =
      update ? std::vector<unsigned>{1} : std::vector<unsigned>{1, 4};
  for (const auto& info : vibe::bench::benchRegistry()) {
    const auto shards = shardVariants(info.readsShards, pinned, update);
    for (unsigned jobs : jobVariants) {
      for (const auto& [shardEnv, shardLabel] : shards) {
        // The axes cross only where both act on the bench; the others
        // vary one at a time from jobs 1, shards 1.
        if (!info.readsShards && jobs != 1 && shardEnv != "1") continue;
        const std::string name =
            info.name +
            (update ? "_update" : "_jobs" + std::to_string(jobs) + shardLabel);
        ::testing::RegisterTest(
            "GoldenTable", name.c_str(), nullptr, nullptr, __FILE__, __LINE__,
            [info, jobs, shardEnv = shardEnv, update]() -> ::testing::Test* {
              return new GoldenTableTest(info, jobs, shardEnv, update);
            });
      }
    }
  }
  return RUN_ALL_TESTS();
}
