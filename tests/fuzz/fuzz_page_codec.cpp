// libFuzzer binary for the snappy-like and heavy page codecs (built only
// with -DTC_FUZZERS=ON under Clang).
#include "fuzz_targets.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  return tc::FuzzPageCodec(data, size);
}
