#include "report.h"

#include <cstdio>

#include "common/json.h"

namespace perfbench {

std::vector<double> Spans::Durations(const std::string& layer) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.layer == layer) {
      out.push_back(std::chrono::duration<double>(s.end - s.start).count());
    }
  }
  return out;
}

namespace {

harmony::json::Value MetricsToJson(const std::map<std::string, Metric>& m) {
  harmony::json::Value out = harmony::json::Value::Object();
  for (const auto& [name, metric] : m) {
    harmony::json::Value v = harmony::json::Value::Object();
    v.Set("value", metric.value);
    v.Set("unit", metric.unit);
    v.Set("n", static_cast<int64_t>(metric.n));
    out.Set(name, std::move(v));
  }
  return out;
}

}  // namespace

std::string Report::ToJson() const {
  harmony::json::Value out = harmony::json::Value::Object();
  out.Set("correct", errors.empty());
  out.Set("attempted", attempted);
  out.Set("failed", failed);
  out.Set("digest", digest);
  out.Set("metrics", MetricsToJson(metrics));
  out.Set("figures", MetricsToJson(figures));
  harmony::json::Value list = harmony::json::Value::Array();
  for (const std::string& e : errors) list.Append(harmony::json::Value::Str(e));
  if (more_errors > 0) {
    list.Append(harmony::json::Value::Str("... and " + std::to_string(more_errors) +
                                          " more"));
  }
  out.Set("errors", std::move(list));
  harmony::json::Value lines = harmony::json::Value::Array();
  for (const std::string& n : notes) lines.Append(harmony::json::Value::Str(n));
  out.Set("notes", std::move(lines));
  harmony::json::Value build = harmony::json::Value::Object();
#ifdef __clang__
  build.Set("compiler", std::string("clang ") + __clang_version__);
#else
  build.Set("compiler", std::string("g++ ") + __VERSION__);
#endif
  build.Set("build_type", PERFBENCH_BUILD_TYPE);
  out.Set("build", std::move(build));
  return out.Dump();
}

std::string HexSeconds(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", seconds);
  return buf;
}

std::string Digest::Hex() const {
  return harmony::json::FingerprintHex(harmony::json::Fnv1a(text_));
}

}  // namespace perfbench
