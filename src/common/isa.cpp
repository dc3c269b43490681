#include "common/isa.h"

namespace ceresz {

HostIsa host_isa() {
  static const HostIsa isa = [] {
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("sse4.2")) {
      return HostIsa::kAvx2;
    }
#endif
    return HostIsa::kScalar;
  }();
  return isa;
}

const char* to_string(HostIsa isa) {
  return isa == HostIsa::kAvx2 ? "avx2" : "scalar";
}

}  // namespace ceresz
