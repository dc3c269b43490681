// Instruction-set level of the host kernels, probed once from CPUID.
//
// Every x86-64 CPU with AVX2 also has SSE4.2, so one probe selects both the
// AVX2 codec kernels (core/kernels.h) and the SSE4.2 crc32 instruction
// behind crc32c() (common/checksum.h). Other hosts run the portable code.
#pragma once

#include "common/types.h"

namespace ceresz {

enum class HostIsa : u8 { kScalar, kAvx2 };

/// kAvx2 on an x86-64 host whose CPU and OS support AVX2 and SSE4.2,
/// kScalar everywhere else. Probed on the first call.
HostIsa host_isa();

/// "scalar" or "avx2".
const char* to_string(HostIsa isa);

}  // namespace ceresz
