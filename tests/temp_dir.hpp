// Per-test scratch directories. ctest runs every test case as its own
// process, in parallel under -j, so a fixed name under the system temp
// directory is shared by concurrent cases that create and delete it. The
// name here carries the running test's suite and case names plus the pid.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace avd::test {

/// temp_directory_path()/<prefix>_<Suite>_<Case>_<pid>; not created.
inline std::filesystem::path unique_temp_dir(const std::string& prefix) {
  std::string name = prefix;
  if (const ::testing::TestInfo* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    name += std::string("_") + info->test_suite_name() + "_" + info->name();
  }
  name += "_" + std::to_string(::getpid());
  for (char& c : name)
    if (c == '/') c = '_';  // parameterised names carry '/'
  return std::filesystem::temp_directory_path() / name;
}

}  // namespace avd::test
