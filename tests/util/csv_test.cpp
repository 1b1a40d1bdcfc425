#include "mcs/util/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace mcs::util {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  [[nodiscard]] std::string read_back() const {
    std::ifstream in(path_);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  }

  // One file per case: ctest runs each case as its own process, in
  // parallel under -j, where a shared path would let one case's TearDown
  // remove another's file.
  std::string path_ =
      ::testing::TempDir() + "mcs_csv_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".csv";
};

TEST_F(CsvTest, WritesHeaderAndRows) {
  {
    CsvWriter csv(path_, {"a", "b"});
    csv.write_row({"1", "2"});
    csv.write_row({"3", "4"});
  }
  EXPECT_EQ(read_back(), "a,b\n1,2\n3,4\n");
}

TEST_F(CsvTest, QuotesSpecialCharacters) {
  {
    CsvWriter csv(path_, {"x"});
    csv.write_row({"has,comma"});
    csv.write_row({"has\"quote"});
  }
  EXPECT_EQ(read_back(), "x\n\"has,comma\"\n\"has\"\"quote\"\n");
}

TEST_F(CsvTest, UnwritablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv", {"a"}),
               std::runtime_error);
}

TEST_F(CsvTest, CloseIsIdempotent) {
  CsvWriter csv(path_, {"a"});
  csv.write_row({"1"});
  csv.close();
  csv.close();
  EXPECT_EQ(read_back(), "a\n1\n");
}

}  // namespace
}  // namespace mcs::util
