#include "obs/prometheus.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <vector>

namespace treesched::obs {

namespace {

std::string fmt_value(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

void append_header(std::string& out, const std::string& name,
                   const std::string& help, const char* type,
                   std::map<std::string, bool>& seen) {
  if (seen[name]) return;
  seen[name] = true;
  out.append("# HELP ").append(name).append(" ");
  out.append(help.empty() ? name : help).append("\n");
  out.append("# TYPE ").append(name).append(" ").append(type).append("\n");
}

void append_sample(std::string& out, const std::string& name,
                   const std::string& labels, double value) {
  out.append(name);
  if (!labels.empty()) out.append("{").append(labels).append("}");
  out.append(" ").append(fmt_value(value)).append("\n");
}

std::string with_label(const std::string& labels, const char* key,
                       const std::string& value) {
  std::string joined = labels;
  if (!joined.empty()) joined.append(",");
  joined.append(key).append("=\"").append(value).append("\"");
  return joined;
}

std::string with_le(const std::string& labels, const std::string& le) {
  return with_label(labels, "le", le);
}

}  // namespace

std::string render_prometheus(const RegistrySnapshot& snap) {
  std::string out;
  out.reserve(4096);
  std::map<std::string, bool> seen;

  // Group scalar samples by metric name (the format requires one
  // contiguous block per name), preserving first-appearance order.
  // Nameless samples exist only for the stats verb.
  std::vector<std::pair<std::string, std::vector<const MetricSample*>>> groups;
  std::map<std::string, std::size_t> group_index;
  for (const MetricSample& s : snap.samples) {
    if (s.name.empty()) continue;
    auto [it, inserted] = group_index.emplace(s.name, groups.size());
    if (inserted) groups.emplace_back(s.name, std::vector<const MetricSample*>{});
    groups[it->second].second.push_back(&s);
  }
  for (const auto& [name, samples] : groups) {
    const MetricSample& head = *samples.front();
    append_header(out, name, head.help,
                  head.kind == MetricKind::kCounter ? "counter" : "gauge",
                  seen);
    for (const MetricSample* s : samples) {
      append_sample(out, name, s->labels, s->value);
    }
  }

  std::vector<std::pair<std::string, std::vector<const HistogramSample*>>>
      hist_groups;
  std::map<std::string, std::size_t> hist_index;
  for (const HistogramSample& h : snap.histograms) {
    auto [it, inserted] = hist_index.emplace(h.name, hist_groups.size());
    if (inserted) {
      hist_groups.emplace_back(h.name, std::vector<const HistogramSample*>{});
    }
    hist_groups[it->second].second.push_back(&h);
  }
  for (const auto& [name, hists] : hist_groups) {
    append_header(out, name, hists.front()->help, "histogram", seen);
    for (const HistogramSample* h : hists) {
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < h->snap.bounds.size(); ++i) {
        cumulative += h->snap.counts[i];
        const double le = static_cast<double>(h->snap.bounds[i]) * h->scale;
        append_sample(out, name + "_bucket", with_le(h->labels, fmt_value(le)),
                      static_cast<double>(cumulative));
      }
      append_sample(out, name + "_bucket", with_le(h->labels, "+Inf"),
                    static_cast<double>(h->snap.count));
      append_sample(out, name + "_sum", h->labels,
                    static_cast<double>(h->snap.sum) * h->scale);
      append_sample(out, name + "_count", h->labels,
                    static_cast<double>(h->snap.count));
    }
  }

  // Sliding-window quantile gauges: <name>_window{quantile=...} reflects
  // the last kWindowSlots x kWindowPeriodNs (about a minute), unlike the
  // lifetime histogram series above. Gauges on purpose — windowed values
  // go down, and the monotonicity checker must not flag them.
  for (const auto& [name, hists] : hist_groups) {
    const std::string wname = name + "_window";
    append_header(out, wname,
                  hists.front()->help + " (sliding last-minute window)",
                  "gauge", seen);
    for (const HistogramSample* h : hists) {
      for (auto [q, tag] : {std::pair<double, const char*>{0.5, "0.5"},
                            std::pair<double, const char*>{0.9, "0.9"},
                            std::pair<double, const char*>{0.99, "0.99"}}) {
        append_sample(out, wname, with_label(h->labels, "quantile", tag),
                      h->window.quantile(q) * h->scale);
      }
    }
    for (const HistogramSample* h : hists) {
      append_sample(out, wname + "_count", h->labels,
                    static_cast<double>(h->window.count));
    }
  }
  return out;
}

}  // namespace treesched::obs
