// Per-test scratch directories for suites that write files. ctest runs
// every test as its own process, in parallel under `ctest -j`, so fixed
// names under TempDir() let concurrent tests overwrite each other's
// archives and state files. A TestDir is keyed on the running test's
// full name and the process id, starts empty, and is removed with
// everything in it when it goes out of scope.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace bgpcc::testing_support {

class TestDir {
 public:
  TestDir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = info != nullptr ? std::string(info->test_suite_name()) +
                                             "." + info->name()
                                       : std::string("no_test");
    for (char& c : name) {
      if (c == '/') c = '_';  // parameterized suite and test names
    }
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("bgpcc_" + name + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~TestDir() {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }
  TestDir(const TestDir&) = delete;
  TestDir& operator=(const TestDir&) = delete;

  /// The directory itself.
  [[nodiscard]] std::string str() const { return dir_.string(); }
  /// A path for `name` inside the directory.
  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  std::filesystem::path dir_;
};

}  // namespace bgpcc::testing_support
