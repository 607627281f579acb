// Checks the benchmark's result oracle: a query's result matches the
// ReferenceExecutor rows it was computed from, saved rows load back
// unchanged, and a corrupted, missing or extra expected row is caught.
// Run with `python3 perfbench/run.py --test`.

#include <cstdio>
#include <memory>

#include "common/logging.h"
#include "core/sharing_engine.h"
#include "oracle.h"
#include "workload/tpch.h"

namespace {

int failures = 0;

void Expect(bool condition, const char* what) {
  std::printf("%s: %s\n", condition ? "ok  " : "FAIL", what);
  if (!condition) ++failures;
}

}  // namespace

int main() {
  using namespace sharing;
  DatabaseOptions options;
  options.buffer_pool_frames = 1024;
  Database db(options);
  auto table = tpch::GenerateLineitem(db.catalog(), db.buffer_pool(), 0.002);
  SHARING_CHECK(table.ok()) << table.status().ToString();

  EngineConfig config;
  config.mode = EngineMode::kSpPull;
  SharingEngine engine(&db, config);
  PlanNodeRef plan = tpch::MakeQ1Plan(90);
  auto result = engine.Execute(plan);
  SHARING_CHECK(result.ok()) << result.status().ToString();

  perfbench::ResultOracle oracle;
  SHARING_CHECK_OK(oracle.Compute(db.catalog(), 0, *plan));
  const auto expected = oracle.Expected(0);
  Expect(expected.size() > 1, "reference result has several rows");
  Expect(oracle.Matches(0, result.value()), "engine result matches");
  Expect(!oracle.Matches(1, result.value()), "unknown plan never matches");

  // The rows other benchmark processes read back are the rows computed.
  const char* path = "oracle_test_rows.txt";
  SHARING_CHECK_OK(oracle.Save(path));
  perfbench::ResultOracle loaded;
  SHARING_CHECK_OK(loaded.Load(path));
  std::remove(path);
  Expect(loaded.size() == 1 && loaded.Expected(0) == expected,
         "saved rows load back unchanged");
  Expect(loaded.Matches(0, result.value()), "loaded rows match");

  auto corrupted = expected;
  corrupted[1].back() = corrupted[1].back() == '0' ? '1' : '0';
  oracle.Expect(0, corrupted);
  Expect(!oracle.Matches(0, result.value()), "corrupted row is caught");

  auto missing = expected;
  missing.pop_back();
  oracle.Expect(0, missing);
  Expect(!oracle.Matches(0, result.value()), "missing row is caught");

  auto extra = expected;
  extra.push_back(expected.back());
  oracle.Expect(0, extra);
  Expect(!oracle.Matches(0, result.value()), "extra row is caught");

  std::printf("%s\n", failures == 0 ? "PASS" : "FAILED");
  return failures == 0 ? 0 : 1;
}
