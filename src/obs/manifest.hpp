#pragma once

/// \file manifest.hpp
/// Run-provenance manifest: an ordered key→value record attached to every
/// RunResult and serialized into the CSV/JSONL sinks and the `.nocobs`
/// timeline (v3 section), so each exported artifact is self-describing —
/// the scenario keys and seed it carries are sufficient to re-run the
/// point, and the build/host entries say what produced it.
///
/// Key namespaces (by convention, not enforced):
///   scenario.*  every Scenario key=value, as Config would print it
///   build.*     compiler, C++ standard, build type, asserts, git describe
///   host.*      calibration (xorshift Mop/s), wall seconds, peak RSS
///   mem.*       byte/object breakdown from memstats (mem=on runs)

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace nocdvfs::obs {

struct RunManifest {
  /// Insertion-ordered entries; keys unique (set() overwrites in place).
  std::vector<std::pair<std::string, std::string>> entries;

  void set(const std::string& key, std::string value);
  void set(const std::string& key, std::uint64_t value);
  /// Doubles are stored in shortest round-trip form.
  void set_double(const std::string& key, double value);

  /// Value for `key`, or nullptr when absent.
  const std::string* find(const std::string& key) const noexcept;

  bool empty() const noexcept { return entries.empty(); }
};

/// Add build.* entries: compiler id+version, C++ standard, NDEBUG state,
/// NOCDVFS_ENABLE_ASSERTS state, and the git describe string the build
/// was configured at (CMake injects NOCDVFS_GIT_DESCRIBE; "unknown"
/// outside a git checkout).
void fill_build_info(RunManifest& m);

/// Host speed calibration: single-thread xorshift64 Mop/s, recorded as
/// `host.calib_mops` so timings can be put in context across machines.
/// The ~0.2 s measurement runs once per process on first call and is
/// cached — call it lazily (profiled runs only) so it never pollutes a
/// timed region.
double host_calib_mops();

}  // namespace nocdvfs::obs
