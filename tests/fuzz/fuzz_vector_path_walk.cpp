// libFuzzer binary for the packed-vector path walks (built only with
// -DTC_FUZZERS=ON under Clang).
#include "fuzz_targets.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  return tc::FuzzVectorPathWalk(data, size);
}
