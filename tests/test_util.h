#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

#include "common/check.h"
#include "parser/parser.h"
#include "plan/plan.h"
#include "plan/schema.h"

/// \file test_util.h
/// Shared fixtures: the Figure-1 schema (tables A and B), parse helpers, and
/// a per-process scratch directory.

namespace geqo::testing {

/// Catalog matching the paper's running example (Figure 1): tables A and B
/// with joinKey/val plus a payload column each.
inline Catalog MakeFigure1Catalog() {
  Catalog catalog;
  GEQO_CHECK_OK(catalog.AddTable(TableDef(
      "a", {ColumnDef{"joinkey", ValueType::kInt}, ColumnDef{"val", ValueType::kInt},
            ColumnDef{"x", ValueType::kInt}})));
  GEQO_CHECK_OK(catalog.AddTable(TableDef(
      "b", {ColumnDef{"joinkey", ValueType::kInt}, ColumnDef{"val", ValueType::kInt},
            ColumnDef{"y", ValueType::kInt}})));
  GEQO_CHECK_OK(catalog.AddJoinKey(JoinKey{"a", "joinkey", "b", "joinkey"}));
  return catalog;
}

/// Parses \p sql against \p catalog, aborting the test on failure.
inline PlanPtr MustParse(std::string_view sql, const Catalog& catalog) {
  Result<PlanPtr> plan = ParseSql(sql, catalog);
  GEQO_CHECK(plan.ok()) << "parse failed for: " << std::string(sql) << " -- "
                        << plan.status().ToString();
  return *plan;
}

/// A scratch directory private to this test process, named from the test
/// (or suite, when asked from SetUpTestSuite) that first asks for it plus
/// the pid. gtest_discover_tests runs every test as its own process and
/// `ctest -j` runs several at once, so a fixed file name directly under
/// ::testing::TempDir() is shared by concurrent processes. Created on first
/// use; removed with its contents when the process exits normally.
inline const std::string& ProcessTempDir() {
  struct Dir {
    std::string path;
    Dir() {
      const ::testing::UnitTest& unit = *::testing::UnitTest::GetInstance();
      std::string name = "test";
      if (const ::testing::TestInfo* info = unit.current_test_info()) {
        name = std::string(info->test_suite_name()) + "." + info->name();
      } else if (const ::testing::TestSuite* suite =
                     unit.current_test_suite()) {
        name = suite->name();
      }
      std::replace(name.begin(), name.end(), '/', '_');
      path = ::testing::TempDir() + "/geqo_" + name + "." +
             std::to_string(::getpid());
      std::filesystem::create_directories(path);
    }
    ~Dir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  };
  static const Dir dir;
  return dir.path;
}

}  // namespace geqo::testing
