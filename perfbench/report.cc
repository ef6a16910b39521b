#include <cmath>
#include <cstdio>
#include <string>

#include "bench.h"

namespace geqo::perfbench {

namespace {

/// JSON number with every digit of the double; non-finite values never
/// reach the output (Report::Print fails the run on them instead).
std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit, uint64_t samples) {
  end_to_end_[name] = Entry{value, unit, samples};
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit, uint64_t samples) {
  layer_[name] = Entry{value, unit, samples};
}

void Report::Named(const std::string& name, double value,
                   const std::string& unit, uint64_t samples) {
  named_[name] = Entry{value, unit, samples};
}

void Report::Property(const std::string& name, double value,
                      const std::string& unit) {
  properties_[name] = Entry{value, unit, 0};
}

void Report::Environment(const std::string& key, const std::string& value) {
  environment_.emplace_back(key, value);
}

void Report::CountOperation(bool ok) { CountOperations(1, ok ? 0 : 1); }

void Report::CountOperations(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Gate(const std::string& name, bool passed,
                  const std::string& detail) {
  ++gates_;
  std::printf("# gate %-34s %s%s%s\n", name.c_str(), passed ? "pass" : "FAIL",
              detail.empty() ? "" : "  ", detail.c_str());
  if (!passed) failed_gates_.emplace_back(name, detail);
}

bool Report::correct() const {
  return failed_gates_.empty() && failed_ == 0 && attempted_ > 0;
}

bool Report::HasLayer(const std::string& name) const {
  return layer_.count(name) > 0;
}

void Report::Print(bool trace) const {
  for (const auto& [key, value] : environment_) {
    std::printf("# env %-26s %s\n", key.c_str(), value.c_str());
  }
  for (const auto& [name, entry] : properties_) {
    std::printf("# property %-32s %14.6g %s\n", name.c_str(), entry.value,
                entry.unit.c_str());
  }
  for (const auto& [name, entry] : named_) {
    std::printf("# metric %-34s %14.6g %-6s n=%llu\n", name.c_str(),
                entry.value, entry.unit.c_str(),
                static_cast<unsigned long long>(entry.samples));
  }
  const std::map<std::string, Entry>& printed = trace ? layer_ : end_to_end_;
  const char* kind = trace ? "layer" : "e2e";
  bool finite = true;
  for (const auto& [name, entry] : printed) {
    std::printf("# %s %-37s %14.6g %-6s n=%llu\n", kind, name.c_str(),
                entry.value, entry.unit.c_str(),
                static_cast<unsigned long long>(entry.samples));
    if (!std::isfinite(entry.value)) {
      std::printf("# metric %s is not finite\n", name.c_str());
      finite = false;
    }
  }
  std::printf("# result attempted=%llu failed=%llu gates=%zu failed_gates=%zu\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_), gates_,
              failed_gates_.size());

  std::string line = "{\"correct\": ";
  line += correct() && finite ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : printed) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " +
            Number(std::isfinite(entry.value) ? entry.value : 0.0) +
            ", \"unit\": \"" + entry.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace geqo::perfbench
