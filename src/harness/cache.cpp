#include "harness/cache.hpp"

#include <filesystem>
#include <fstream>

namespace ndc::harness {

ResultCache::ResultCache(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/results.jsonl";

  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    json::Value v;
    const json::Value* key;
    const json::Value* res;
    CellResult r;
    if (!json::Parse(line, &v) || (key = v.Find("key")) == nullptr ||
        key->kind != json::Value::Kind::kString || (res = v.Find("result")) == nullptr ||
        !CellResult::FromJson(*res, &r)) {
      ++load_errors_;
      continue;
    }
    entries_[key->str] = std::move(r);  // duplicate keys: last line wins
  }
  in.close();

  // Append mode: single-line writes, flushed per insert. POSIX O_APPEND
  // keeps concurrent bench processes from interleaving mid-line for our
  // line sizes; a torn line is skipped (and re-measured) on the next load.
  out_ = std::fopen(path.c_str(), "a");
}

ResultCache::~ResultCache() {
  if (out_ != nullptr) std::fclose(out_);
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

bool ResultCache::Lookup(const CellSpec& spec, CellResult* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(spec.Key());
  if (it == entries_.end()) return false;
  *out = it->second;
  out->from_cache = true;
  return true;
}

void ResultCache::Insert(const CellSpec& spec, const CellResult& result) {
  json::Value line = json::Value::Object();
  line.obj["key"] = json::Value::Str(spec.Key());
  line.obj["version"] = json::Value::Str(kCacheVersion);
  // Human-readable provenance for debugging; lookups go by key alone.
  line.obj["workload"] = json::Value::Str(spec.workload);
  line.obj["scheme"] = json::Value::Str(spec.SchemeLabel());
  line.obj["scale"] = json::Value::Str(ScaleName(spec.scale));
  if (!spec.variant.empty()) line.obj["variant"] = json::Value::Str(spec.variant);
  line.obj["result"] = result.ToJson();
  std::string text = json::Dump(line);

  std::lock_guard<std::mutex> lock(mu_);
  entries_[spec.Key()] = result;
  entries_[spec.Key()].from_cache = false;
  if (out_ != nullptr) {
    std::fprintf(out_, "%s\n", text.c_str());
    std::fflush(out_);
  }
}

}  // namespace ndc::harness
