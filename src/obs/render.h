// Rendering helpers shared by the src/obs renderers (report.cpp, census.cpp
// and export.cpp); not part of the public API.
#pragma once

#include <string>

#include "obs/stats_registry.h"

namespace kiwi::obs {

/// printf-append onto `out` (snprintf-exact formatting, which matters for
/// the JSON contract: %.17g round-trips doubles, no locale).
[[gnu::format(printf, 2, 3)]] void Append(std::string& out, const char* fmt,
                                         ...);

/// `{"<counter>":<n>,...,"retries":<n>}` in OpCounters::ForEachRendered
/// order: the counter objects of ToJson and of the JSONL deltas.
void AppendCounterObject(std::string& out, const OpCounters& counters);

}  // namespace kiwi::obs
