// Seeded workload inputs: raw runs from the sim generators, converted to
// PTdf with the tools converters, written under one directory.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace perfbench {

/// One generated PTdf file and the execution it carries.
struct PtdfFile {
  std::filesystem::path path;
  std::string execution;  // empty for the machine-description file
  std::string kind;  // machines | irs | smg-mpip | smg-pmapi | paradyn
};

struct Inputs {
  /// The store's contents, in load order (machine descriptions first).
  std::vector<PtdfFile> store_files;
};

/// Generates every input of one seed under `dir` (created if missing). The
/// same seed always yields byte-identical files. Calibrates the host speed
/// after each file (see hostspeed.h).
Inputs generateInputs(std::uint64_t seed, const std::filesystem::path& dir);

}  // namespace perfbench
