#pragma once

// Persistent on-disk result cache: one JSONL file (results.jsonl) under a
// cache directory, one line per measured cell, keyed by the cell's content
// hash (workload + scheme + scale + full ArchConfig + kCacheVersion). A
// second figure — or a re-run — that needs an already-measured cell reads
// it back instead of re-invoking the simulator.
//
// Invalidation: the key bakes in kCacheVersion (src/harness/cell.hpp); bump
// it when simulator semantics change, or simply delete the cache directory.
// Lines that fail to parse are skipped (counted in load_errors()), so a
// truncated tail from a killed run only costs re-measuring those cells.

#include <cstdio>
#include <map>
#include <mutex>
#include <string>

#include "harness/cell.hpp"

namespace ndc::harness {

class ResultCache {
 public:
  /// Opens (creating if needed) `dir`/results.jsonl and loads every valid
  /// entry. A cache that fails to open stays usable as a pure in-memory
  /// map (nothing persists).
  explicit ResultCache(const std::string& dir);
  ~ResultCache();

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  std::size_t size() const;
  std::size_t load_errors() const { return load_errors_; }

  /// Thread-safe lookup; fills `out` (with from_cache set) on a hit.
  bool Lookup(const CellSpec& spec, CellResult* out) const;

  /// Thread-safe insert: records in memory and appends one JSONL line
  /// (flushed immediately, so concurrent/killed runs lose at most the line
  /// being written).
  void Insert(const CellSpec& spec, const CellResult& result);

 private:
  mutable std::mutex mu_;
  std::map<std::string, CellResult> entries_;
  std::size_t load_errors_ = 0;
  std::FILE* out_ = nullptr;
};

}  // namespace ndc::harness
