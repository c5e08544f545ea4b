#include "obs/counters.hpp"

#include <ostream>
#include <sstream>

#include "obs/json.hpp"

namespace prdrb::obs {

CounterRegistry::CounterRegistry(SimTime bin_width) : bin_width_(bin_width) {}

CounterRegistry::Metric& CounterRegistry::find_or_create(
    const std::string& name, bool is_gauge) {
  auto it = index_.find(name);
  if (it != index_.end()) return *metrics_[it->second];
  auto m = std::make_unique<Metric>(bin_width_);
  m->name = name;
  m->is_gauge = is_gauge;
  index_.emplace(name, metrics_.size());
  metrics_.push_back(std::move(m));
  return *metrics_.back();
}

Counter& CounterRegistry::counter(const std::string& name) {
  Metric& m = find_or_create(name, /*is_gauge=*/false);
  if (!m.counter) m.counter = std::make_unique<Counter>();
  return *m.counter;
}

void CounterRegistry::gauge(const std::string& name,
                            std::function<double()> probe) {
  Metric& m = find_or_create(name, /*is_gauge=*/true);
  m.is_gauge = true;
  m.probe = std::move(probe);
}

void CounterRegistry::sample(SimTime now) {
  ++samples_taken_;
  for (const auto& m : metrics_) {
    double v = 0;
    if (m->is_gauge) {
      v = m->probe ? m->probe() : m->last;
    } else if (m->counter) {
      v = static_cast<double>(m->counter->value());
    }
    m->last = v;
    m->series.add(now, v);
  }
}

const TimeSeries* CounterRegistry::series(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? nullptr : &metrics_[it->second]->series;
}

double CounterRegistry::current(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) return 0.0;
  const Metric& m = *metrics_[it->second];
  if (m.is_gauge) return m.probe ? m.probe() : m.last;
  return m.counter ? static_cast<double>(m.counter->value()) : 0.0;
}

void CounterRegistry::freeze_gauges() {
  for (const auto& m : metrics_) {
    if (!m->is_gauge || !m->probe) continue;
    m->last = m->probe();
    m->probe = nullptr;
  }
}

std::uint64_t CounterRegistry::timeseries_clamped() const {
  std::uint64_t total = 0;
  for (const auto& m : metrics_) total += m->series.clamped();
  return total;
}

std::vector<std::string> CounterRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(metrics_.size());
  for (const auto& m : metrics_) out.push_back(m->name);
  return out;
}

void CounterRegistry::write_csv(std::ostream& os) const {
  os << "name,kind,bin_time_s,mean,count\n";
  for (const auto& m : metrics_) {
    const char* kind = m->is_gauge ? "gauge" : "counter";
    for (std::size_t i = 0; i < m->series.bins(); ++i) {
      if (m->series.bin_count(i) == 0) continue;
      os << m->name << ',' << kind << ','
         << json_number(m->series.bin_time(i)) << ','
         << json_number(m->series.bin_mean(i)) << ','
         << m->series.bin_count(i) << '\n';
    }
  }
}

void CounterRegistry::write_json(std::ostream& os) const {
  JsonWriter w;
  w.begin_object();
  w.field("schema", "prdrb-counters-v1");
  w.field("samples", samples_taken_);
  w.field("timeseries_clamped", timeseries_clamped());
  w.key("counters").begin_array();
  for (const auto& m : metrics_) {
    w.begin_object();
    w.field("name", m->name);
    w.field("kind", m->is_gauge ? "gauge" : "counter");
    if (m->series.clamped() > 0) {
      // Peaks exclude the saturated overflow bin; report how many samples
      // were clamped (and how many of those saturated) so the exclusion is
      // auditable from the export alone.
      w.field("clamped", m->series.clamped());
      w.field("overflow_clamped", m->series.overflow_clamped());
    }
    w.field("value", m->is_gauge
                         ? (m->probe ? m->probe() : m->last)
                         : static_cast<double>(
                               m->counter ? m->counter->value() : 0));
    w.key("series").begin_array();
    for (std::size_t i = 0; i < m->series.bins(); ++i) {
      if (m->series.bin_count(i) == 0) continue;
      w.begin_array();
      w.value(m->series.bin_time(i));
      w.value(m->series.bin_mean(i));
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << w.str() << '\n';
}

std::string CounterRegistry::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

bool CounterRegistry::write_file(const std::string& path) const {
  std::ostringstream os;
  if (path.size() >= 4 && path.ends_with(".csv")) {
    write_csv(os);
  } else {
    write_json(os);
  }
  return write_text_file(path, os.str());
}

}  // namespace prdrb::obs
