// kiwi_perfbench: runs one workload against the KiWi map and prints a
// human-readable report followed by one JSON line.  Normally driven by
// perfbench/run.py, which builds it; see perfbench/README.md.
//
//   kiwi_perfbench --workload analytics|ingest --seed N --seconds S
//                  [--trace 0|1] [--spans FILE] [--sabotage]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "obs/stats_registry.h"

namespace {

using perfbench::Result;

void Usage() {
  std::fprintf(stderr,
               "usage: kiwi_perfbench --workload analytics|ingest "
               "--seed N --seconds S [--trace 0|1] [--spans FILE] "
               "[--sabotage]\n");
  std::exit(2);
}

std::string Number(double v) {
  if (std::isnan(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Shown(double v) {
  if (std::isnan(v)) return "unavailable";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

bool WriteSpans(const Result& r, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  for (const perfbench::Span& s : r.spans) {
    std::fprintf(f,
                 "{\"id\":%u,\"parent\":%u,\"trace\":%u,\"name\":\"%s\","
                 "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                 s.id, s.parent, s.trace, s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  const char* spans_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value(), nullptr);
    } else if (arg == "--trace") {
      o.trace = std::strcmp(value(), "0") != 0;
    } else if (arg == "--spans") {
      spans_path = value();
    } else if (arg == "--sabotage") {
      o.sabotage = true;
    } else {
      Usage();
    }
  }
  if (!(o.seconds > 0) || o.seconds > 600) Usage();

  Result r;
  if (o.workload == "analytics") {
    r = perfbench::RunAnalytics(o);
  } else if (o.workload == "ingest") {
    r = perfbench::RunIngest(o);
  } else {
    Usage();
  }
  if (spans_path != nullptr && !WriteSpans(r, spans_path)) {
    std::fprintf(stderr, "cannot write spans to %s\n", spans_path);
    return 1;
  }

  const double failed_frac = r.attempted > 0
                                 ? static_cast<double>(r.failed) /
                                       static_cast<double>(r.attempted)
                                 : 0;
  const std::string w = o.workload;
  std::printf("workload %s  seed %llu  seconds %g  trace %d  stats %s\n",
              w.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? 1 : 0, KIWI_OBS_ENABLED ? "on" : "off");
  std::printf("  %s/write_keys_per_s  %s 1/s\n", w.c_str(),
              Shown(r.write_keys_per_s).c_str());
  std::printf("  %s/write_p50_us      %s us  (p99 %s us, %zu samples)\n",
              w.c_str(), Shown(r.write_p50_us).c_str(),
              Shown(r.write_p99_us).c_str(), r.write_samples);
  std::printf("  %s/read_keys_per_s   %s 1/s\n", w.c_str(),
              Shown(r.read_keys_per_s).c_str());
  std::printf("  %s/read_p50_us       %s us  (p99 %s us, %zu samples)\n",
              w.c_str(), Shown(r.read_p50_us).c_str(),
              Shown(r.read_p99_us).c_str(), r.read_samples);
  std::printf("  %s/bytes_per_key     %s B\n", w.c_str(),
              Shown(r.bytes_per_key).c_str());
  std::printf("  %s/setup_s           %s s\n", w.c_str(),
              Shown(r.setup_s).c_str());
  std::printf("  %s/failed_frac       %s ratio  (%llu of %llu)\n", w.c_str(),
              Shown(failed_frac).c_str(),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  for (const auto& [name, value] : r.layers) {
    std::printf("  %s/%-34s %s\n", w.c_str(), name.c_str(),
                Shown(value).c_str());
  }
  for (const std::string& note : r.notes) std::printf("  # %s\n", note.c_str());
  if (o.trace) {
    std::printf("  # one clock read costs %.0f ns; subtracted from each "
                "replayed phase\n",
                perfbench::ClockCostNs());
  }

  std::string json = "{\"workload\":\"" + w + "\",\"seed\":" +
                     std::to_string(o.seed) + ",\"trace\":" +
                     (o.trace ? "1" : "0") + ",\"stats\":" +
                     (KIWI_OBS_ENABLED ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(r.attempted) +
                     ",\"failed\":" + std::to_string(r.failed) +
                     ",\"end_to_end\":{";
  const std::pair<const char*, double> e2e[] = {
      {"write_keys_per_s", r.write_keys_per_s},
      {"write_p50_us", r.write_p50_us},
      {"write_p99_us", r.write_p99_us},
      {"write_samples", static_cast<double>(r.write_samples)},
      {"read_keys_per_s", r.read_keys_per_s},
      {"read_p50_us", r.read_p50_us},
      {"read_p99_us", r.read_p99_us},
      {"read_samples", static_cast<double>(r.read_samples)},
      {"bytes_per_key", r.bytes_per_key},
      {"setup_s", r.setup_s},
      {"failed_frac", failed_frac},
  };
  bool first = true;
  for (const auto& [name, value] : e2e) {
    json += (first ? "\"" : ",\"") + std::string(name) + "\":" + Number(value);
    first = false;
  }
  json += "},\"layers\":{";
  first = true;
  for (const auto& [name, value] : r.layers) {
    json += (first ? "\"" : ",\"") + name + "\":" + Number(value);
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
