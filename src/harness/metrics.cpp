#include "harness/metrics.h"

#include <cstdio>
#include <vector>

#include "api/map_interface.h"

namespace kiwi::harness {

namespace {
/// The registry lives inside KiWiMap; other maps have no obs state.
core::KiWiMap* AsKiwi(api::IOrderedMap& map) {
  auto* adapter = dynamic_cast<api::MapAdapter<core::KiWiMap>*>(&map);
  return adapter != nullptr ? &adapter->Underlying() : nullptr;
}
}  // namespace

void EmitCsv(const std::string& figure, const std::string& series, double x,
             double y, const std::string& unit) {
  std::printf("csv,%s,%s,%.6g,%.6g,%s\n", figure.c_str(), series.c_str(), x,
              y, unit.c_str());
  std::fflush(stdout);
}

void Note(const std::string& text) {
  std::printf("# %s\n", text.c_str());
  std::fflush(stdout);
}

std::string FormatMps(double per_sec) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f M/s", per_sec / 1e6);
  return buffer;
}

std::string FormatMb(std::size_t bytes) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.2f MB",
                static_cast<double>(bytes) / (1024.0 * 1024.0));
  return buffer;
}

bool ParseUintList(const std::string& text, std::vector<std::uint64_t>* out) {
  out->clear();
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find(',', begin);
    if (end == std::string::npos) end = text.size();
    if (end == begin) return false;
    char* parse_end = nullptr;
    const unsigned long long value =
        std::strtoull(text.c_str() + begin, &parse_end, 10);
    if (parse_end != text.c_str() + end) return false;
    out->push_back(value);
    begin = end + 1;
  }
  return !out->empty();
}

bool StartEnvMetricsPump(api::IOrderedMap& map) {
  core::KiWiMap* kiwi = AsKiwi(map);
  return kiwi != nullptr && kiwi->StartMetricsPumpFromEnv();
}

bool EmitObsJson(const std::string& figure, const std::string& series,
                 api::IOrderedMap& map) {
  core::KiWiMap* kiwi = AsKiwi(map);
  if (kiwi == nullptr) return false;
  std::printf("obsjson,%s,%s,%s\n", figure.c_str(), series.c_str(),
              kiwi->DebugReport().ToJson().c_str());
  std::fflush(stdout);
  return true;
}

}  // namespace kiwi::harness
