// A trace CSV (TraceRecorder::to_csv output) helper for tests that compare
// whole cluster traces with the idle-host skip on and off.
#pragma once

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace arv::testing {

/// A cluster trace CSV without its cluster.hosts_skipped column — the one
/// series that legitimately differs between idle-host-skip on and off runs.
inline std::string without_skip_column(const std::string& csv) {
  const std::string column = "cluster.hosts_skipped";
  std::istringstream in(csv);
  std::string line;
  std::string out;
  std::size_t drop = std::string::npos;
  bool header = true;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string field;
    std::vector<std::string> row;
    while (std::getline(fields, field, ',')) {
      row.push_back(field);
    }
    if (header) {
      for (std::size_t i = 0; i < row.size(); ++i) {
        if (row[i] == column) {
          drop = i;
        }
      }
      EXPECT_NE(drop, std::string::npos) << "column not found: " << column;
      header = false;
    }
    std::string joined;
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i == drop) {
        continue;
      }
      if (!joined.empty()) {
        joined += ',';
      }
      joined += row[i];
    }
    out += joined;
    out += '\n';
  }
  return out;
}

}  // namespace arv::testing
