#include "sim/rollup.hpp"

#include <cstdio>

#include "sim/text.hpp"

namespace softqos::sim {

namespace {

void appendDouble(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += buf;
}

}  // namespace

std::string encodeHistogram(const Histogram& h) {
  std::string out;
  out += std::to_string(h.count());
  out += ',';
  appendDouble(out, h.sum());
  out += ',';
  appendDouble(out, h.min());
  out += ',';
  appendDouble(out, h.max());
  const std::vector<std::uint64_t>& buckets = h.buckets();
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    out += ',';
    out += std::to_string(i);
    out += ':';
    out += std::to_string(buckets[i]);
  }
  // Exemplars trail the buckets as "x<idx>:<trace>:<when>:<value>" — an
  // exemplar-free histogram encodes byte-identically to the v1 codec.
  for (const auto& [idx, ex] : h.exemplars()) {
    out += ",x";
    out += std::to_string(idx);
    out += ':';
    out += std::to_string(ex.traceId);
    out += ':';
    out += std::to_string(ex.when);
    out += ':';
    appendDouble(out, ex.value);
  }
  return out;
}

std::optional<Histogram> decodeHistogram(std::string_view text) {
  const auto fields = split(text, ',');
  if (fields.size() < 4) return std::nullopt;
  const auto count = parseNumber<std::uint64_t>(fields[0]);
  const auto sum = parseNumber<double>(fields[1]);
  const auto min = parseNumber<double>(fields[2]);
  const auto max = parseNumber<double>(fields[3]);
  if (!count || !sum || !min || !max) return std::nullopt;
  std::vector<std::uint64_t> buckets;
  std::vector<std::pair<std::size_t, Exemplar>> exemplars;
  std::uint64_t total = 0;
  for (std::size_t f = 4; f < fields.size(); ++f) {
    const std::string_view field = fields[f];
    if (!field.empty() && field.front() == 'x') {
      // Exemplar entry: x<idx>:<trace>:<when>:<value>.
      const auto parts = split(field.substr(1), ':');
      if (parts.size() != 4) return std::nullopt;
      const auto idx = parseNumber<std::uint64_t>(parts[0]);
      const auto trace = parseNumber<std::uint64_t>(parts[1]);
      const auto when = parseNumber<std::int64_t>(parts[2]);
      const auto value = parseNumber<double>(parts[3]);
      if (!idx || !trace || !when || !value || *idx >= 4096 || *trace == 0) {
        return std::nullopt;
      }
      exemplars.emplace_back(*idx, Exemplar{*trace, *value, *when});
      continue;
    }
    const std::size_t colon = field.find(':');
    if (colon == std::string_view::npos) return std::nullopt;
    const auto idx = parseNumber<std::uint64_t>(field.substr(0, colon));
    const auto cnt = parseNumber<std::uint64_t>(field.substr(colon + 1));
    // Bucket indexes are bounded by log2 of the largest double the codec can
    // carry; 4096 is far past any real sample and blocks hostile resizes.
    if (!idx || !cnt || *idx >= 4096) return std::nullopt;
    if (*idx >= buckets.size()) buckets.resize(*idx + 1, 0);
    buckets[*idx] += *cnt;
    total += *cnt;
  }
  if (total != *count) return std::nullopt;
  Histogram h =
      Histogram::fromParts(std::move(buckets), *count, *sum, *min, *max);
  for (const auto& [idx, ex] : exemplars) {
    // An exemplar must reference a non-empty bucket.
    if (idx >= h.buckets().size() || h.buckets()[idx] == 0) return std::nullopt;
    h.offerExemplar(idx, ex);
  }
  return h;
}

const Histogram* RollupWindow::Window::histogram(std::string_view name) const {
  for (const auto& [n, h] : histograms) {
    if (n == name) return &h;
  }
  return nullptr;
}

std::optional<std::int64_t> RollupWindow::Window::counter(
    std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return std::nullopt;
}

RollupWindow::RollupWindow(Simulation& simulation, MetricRegistry& registry,
                           RollupConfig config)
    : sim_(simulation), registry_(registry), config_(config) {
  if (config_.maxWindows == 0) config_.maxWindows = 1;
  lastTick_ = sim_.now();
}

void RollupWindow::trackCounter(const std::string& name) {
  for (const auto& c : counters_) {
    if (c.name == name) return;
  }
  TrackedCounter tc;
  tc.name = name;
  tc.last = registry_.counter(name);
  counters_.push_back(std::move(tc));
}

void RollupWindow::trackHistogram(const std::string& name) {
  for (const auto& h : histograms_) {
    if (h.name == name) return;
  }
  TrackedHistogram th;
  th.name = name;
  if (const Histogram* cur = registry_.histogram(name)) th.last = *cur;
  histograms_.push_back(std::move(th));
}

void RollupWindow::tick() {
  Window w;
  w.start = lastTick_;
  w.end = sim_.now();
  w.counters.reserve(counters_.size());
  for (TrackedCounter& tc : counters_) {
    const std::int64_t cur = registry_.counter(tc.name);
    w.counters.emplace_back(tc.name, cur - tc.last);
    tc.last = cur;
  }
  w.histograms.reserve(histograms_.size());
  for (TrackedHistogram& th : histograms_) {
    const Histogram* cur = registry_.histogram(th.name);
    if (cur != nullptr) {
      w.histograms.emplace_back(th.name, cur->deltaSince(th.last));
      th.last = *cur;
    } else {
      w.histograms.emplace_back(th.name, Histogram{});
    }
  }
  windows_.push_back(std::move(w));
  while (windows_.size() > config_.maxWindows) windows_.pop_front();
  lastTick_ = sim_.now();
  ++ticks_;
}

Histogram RollupWindow::mergedHistogram(std::string_view name,
                                        SimTime from) const {
  Histogram merged;
  for (const Window& w : windows_) {
    if (w.end <= from) continue;
    if (const Histogram* h = w.histogram(name)) merged.merge(*h);
  }
  return merged;
}

std::int64_t RollupWindow::counterSum(std::string_view name,
                                      SimTime from) const {
  std::int64_t sum = 0;
  for (const Window& w : windows_) {
    if (w.end <= from) continue;
    if (const auto v = w.counter(name)) sum += *v;
  }
  return sum;
}

TelemetrySnapshot TelemetrySnapshot::fromWindow(
    std::string source, const RollupWindow::Window& window) {
  TelemetrySnapshot snap;
  snap.source = std::move(source);
  snap.windowStart = window.start;
  snap.windowEnd = window.end;
  snap.counters = window.counters;
  snap.histograms = window.histograms;
  return snap;
}

std::string TelemetrySnapshot::serialize() const {
  std::string out = "v1\n";
  out += "src=" + source + "\n";
  out += "win=" + std::to_string(windowStart) + "," +
         std::to_string(windowEnd) + "\n";
  for (const auto& [name, delta] : counters) {
    out += "c=" + name + "," + std::to_string(delta) + "\n";
  }
  for (const auto& [name, hist] : histograms) {
    out += "h=" + name + ";" + encodeHistogram(hist) + "\n";
  }
  return out;
}

std::optional<TelemetrySnapshot> TelemetrySnapshot::parse(
    std::string_view text) {
  const auto lines = split(text, '\n');
  if (lines.empty() || lines[0] != "v1") return std::nullopt;
  TelemetrySnapshot snap;
  bool sawSource = false;
  bool sawWindow = false;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string_view line = lines[i];
    if (line.empty()) continue;  // trailing newline
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) return std::nullopt;
    const std::string_view key = line.substr(0, eq);
    const std::string_view rest = line.substr(eq + 1);
    if (key == "src") {
      snap.source = std::string(rest);
      sawSource = true;
    } else if (key == "win") {
      const std::size_t comma = rest.find(',');
      if (comma == std::string_view::npos) return std::nullopt;
      const auto start = parseNumber<std::int64_t>(rest.substr(0, comma));
      const auto end = parseNumber<std::int64_t>(rest.substr(comma + 1));
      if (!start || !end) return std::nullopt;
      snap.windowStart = *start;
      snap.windowEnd = *end;
      sawWindow = true;
    } else if (key == "c") {
      const std::size_t comma = rest.rfind(',');
      if (comma == std::string_view::npos) return std::nullopt;
      const auto delta = parseNumber<std::int64_t>(rest.substr(comma + 1));
      if (!delta) return std::nullopt;
      snap.counters.emplace_back(std::string(rest.substr(0, comma)), *delta);
    } else if (key == "h") {
      const std::size_t semi = rest.find(';');
      if (semi == std::string_view::npos) return std::nullopt;
      auto hist = decodeHistogram(rest.substr(semi + 1));
      if (!hist) return std::nullopt;
      snap.histograms.emplace_back(std::string(rest.substr(0, semi)),
                                   std::move(*hist));
    } else {
      return std::nullopt;
    }
  }
  if (!sawSource || !sawWindow) return std::nullopt;
  return snap;
}

TelemetrySnapshot TelemetryAggregator::cutDelta(std::string source,
                                                SimTime windowStart,
                                                SimTime windowEnd) {
  TelemetrySnapshot snap;
  snap.source = std::move(source);
  snap.windowStart = windowStart;
  snap.windowEnd = windowEnd;
  for (const auto& [name, total] : counters_) {
    std::int64_t& base = cutCounters_[name];
    if (total != base) snap.counters.emplace_back(name, total - base);
    base = total;
  }
  for (const auto& [name, hist] : merged_) {
    Histogram& base = cutHistograms_[name];
    Histogram delta = hist.deltaSince(base);
    if (delta.count() != 0) {
      snap.histograms.emplace_back(name, std::move(delta));
    }
    base = hist;
  }
  return snap;
}

void TelemetryAggregator::ingest(const TelemetrySnapshot& snapshot) {
  ++ingested_;
  for (const auto& [name, delta] : snapshot.counters) {
    counters_[name] += delta;
  }
  for (const auto& [name, hist] : snapshot.histograms) {
    merged_[name].merge(hist);
  }
  latest_[snapshot.source] = snapshot;
}

}  // namespace softqos::sim
