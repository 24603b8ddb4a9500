#include "obs/prometheus.hpp"

#include <cstdint>
#include <cstdio>

#include "obs/registry.hpp"
#include "obs/runinfo.hpp"

namespace tspopt::obs {

namespace {

std::string sanitize_name(std::string_view name) {
  std::string out = "tspopt_";
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

// Label-value escaping per the exposition format: backslash, double quote
// and line feed.
std::string escape_label(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

void append_labels(std::string& out, const LabelSet& labels,
                   const std::string& extra_key = {},
                   const std::string& extra_value = {}) {
  if (labels.empty() && extra_key.empty()) return;
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += sanitize_name(k).substr(7);  // labels get no tspopt_ prefix
    out += "=\"";
    out += escape_label(v);
    out += '"';
  }
  if (!extra_key.empty()) {
    if (!first) out += ',';
    out += extra_key;
    out += "=\"";
    out += escape_label(extra_value);
    out += '"';
  }
  out += '}';
}

std::string format_value(double v) {
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      v >= -9.007199254740992e15 && v <= 9.007199254740992e15) {
    return std::to_string(static_cast<std::int64_t>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string format_bound(double b) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", b);
  return buf;
}

}  // namespace

std::string prometheus_text(const Registry& registry) {
  std::string out;
  out += "# TYPE tspopt_run_info gauge\n";
  out += "tspopt_run_info{id=\"" + escape_label(run_id()) + "\",git=\"" +
         escape_label(git_describe()) + "\"} 1\n";

  std::string last_typed;  // one TYPE line per metric name
  for (const Registry::Entry& e : registry.entries()) {
    std::string name = sanitize_name(e.name);
    switch (e.kind) {
      case Registry::Kind::kCounter: {
        if (name != last_typed) {
          out += "# TYPE " + name + " counter\n";
          last_typed = name;
        }
        std::string line = name;
        append_labels(line, e.labels);
        out += line + ' ' + std::to_string(e.c->value()) + '\n';
        break;
      }
      case Registry::Kind::kGauge: {
        if (name != last_typed) {
          out += "# TYPE " + name + " gauge\n";
          last_typed = name;
        }
        std::string line = name;
        append_labels(line, e.labels);
        out += line + ' ' + format_value(e.g->value()) + '\n';
        break;
      }
      case Registry::Kind::kHistogram: {
        if (name != last_typed) {
          out += "# TYPE " + name + " histogram\n";
          last_typed = name;
        }
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < e.h->bounds().size(); ++b) {
          cumulative += e.h->bucket_count(b);
          std::string line = name + "_bucket";
          append_labels(line, e.labels, "le",
                        format_bound(e.h->bounds()[b]));
          out += line + ' ' + std::to_string(cumulative) + '\n';
        }
        std::string inf_line = name + "_bucket";
        append_labels(inf_line, e.labels, "le", "+Inf");
        out += inf_line + ' ' + std::to_string(e.h->count()) + '\n';
        std::string sum_line = name + "_sum";
        append_labels(sum_line, e.labels);
        out += sum_line + ' ' + format_value(e.h->sum()) + '\n';
        std::string count_line = name + "_count";
        append_labels(count_line, e.labels);
        out += count_line + ' ' + std::to_string(e.h->count()) + '\n';
        // Non-standard: the implicit overflow bucket as its own counter —
        // le="+Inf" minus the last finite bucket, pre-computed for
        // scrapers (and the ISSUE's <name>_overflow requirement).
        std::string overflow_line = name + "_overflow";
        append_labels(overflow_line, e.labels);
        out += overflow_line + ' ' +
               std::to_string(e.h->overflow_count()) + '\n';
        break;
      }
    }
  }
  return out;
}

}  // namespace tspopt::obs
