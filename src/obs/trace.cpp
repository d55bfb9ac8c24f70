#include "obs/trace.hpp"

#include <fstream>

#include "json/json.hpp"

namespace ndc::obs {
namespace {

json::Value EventJson(const TraceEvent& e) {
  using json::Value;
  Value v = Value::Object({{"ph", Value::Str(std::string(1, e.ph))},
                           {"ts", Value::Int(e.ts)},
                           {"pid", Value::Signed(e.pid)},
                           {"tid", Value::Signed(e.tid)},
                           {"name", Value::Str(e.name)}});
  if (e.ph == 'X') v.obj["dur"] = Value::Int(e.dur);
  if (e.ph == 'i') v.obj["s"] = Value::Str("t");  // instant scope: thread
  if (e.token != 0 || e.arg_name != nullptr) {
    Value args = Value::Object();
    if (e.token != 0) args.obj["token"] = Value::Int(e.token);
    if (e.arg_name != nullptr) args.obj[e.arg_name] = Value::Int(e.arg);
    v.obj["args"] = std::move(args);
  }
  return v;
}

}  // namespace

std::string TraceSink::ToJson() const {
  // One Dump per event: a whole-document Value would hold every event as a
  // tree of maps. "traceEvents" sorts last, so the document's Dump ends in
  // its empty array's "]}" and the events go in front of it.
  std::string out = json::Dump(json::Value::Object(
      {{"displayTimeUnit", json::Value::Str("ns")}, {"traceEvents", json::Value::Array()}}));
  out.resize(out.size() - 2);
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (i != 0) out += ',';
    out += json::Dump(EventJson(events_[i]));
  }
  out += "]}";
  return out;
}

bool TraceSink::WriteFile(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << ToJson() << "\n";
  return static_cast<bool>(f);
}

}  // namespace ndc::obs
