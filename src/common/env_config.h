// Environment-variable knobs shared by the benchmark harness so every figure
// reproduction can be scaled up or down without recompiling (TC_BENCH_MB etc).
#ifndef TC_COMMON_ENV_CONFIG_H_
#define TC_COMMON_ENV_CONFIG_H_

#include <cstdint>
#include <string>

namespace tc {

/// Integer env var with default; returns `def` when unset or unparsable.
int64_t EnvInt64(const char* name, int64_t def);

/// String env var with default. Enum-valued knobs (TC_MERGE_POLICY) parse
/// case-insensitively at their point of use.
std::string EnvString(const char* name, const std::string& def);

/// Target raw-data megabytes per dataset for figure benches (TC_BENCH_MB, default 12).
int64_t BenchMegabytes();

}  // namespace tc

#endif  // TC_COMMON_ENV_CONFIG_H_
