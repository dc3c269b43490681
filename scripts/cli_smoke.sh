#!/usr/bin/env bash
# CLI smoke test of the ceresz command-line tool:
#   - `compress` writes the same bytes with --threads 1 and --threads 4;
#   - `info` describes the file and `decompress` reads it back within the
#     error bound;
#   - a flipped payload byte makes `decompress` exit 1, and exit 3 (output
#     written, the corrupt chunk zero-filled) with --lenient.
#
#   scripts/cli_smoke.sh [build-dir]    # default build dir: build
set -euo pipefail
cd "$(dirname "$0")/.."
CLI="$(realpath "${1:-build}")/tools/ceresz"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# 300000 values: five chunks of the engine's default 64 Ki elements.
python3 - "$WORK/in.f32" <<'PY'
import math, struct, sys
n = 300000
values = [10 * math.sin(i / 64) + math.cos(i / 7) for i in range(n)]
open(sys.argv[1], "wb").write(struct.pack("<%df" % n, *values))
PY

"$CLI" compress "$WORK/in.f32" "$WORK/t1.csz" --abs 1e-3 --threads 1
"$CLI" compress "$WORK/in.f32" "$WORK/t4.csz" --abs 1e-3 --threads 4
cmp "$WORK/t1.csz" "$WORK/t4.csz"
"$CLI" info "$WORK/t1.csz"
"$CLI" decompress "$WORK/t1.csz" "$WORK/back.f32" --threads 2
python3 - "$WORK/in.f32" "$WORK/back.f32" <<'PY'
import struct, sys
a, b = (open(p, "rb").read() for p in sys.argv[1:3])
assert len(a) == len(b), "decompressed size differs"
x = struct.unpack("<%df" % (len(a) // 4), a)
y = struct.unpack("<%df" % (len(b) // 4), b)
err = max(abs(p - q) for p, q in zip(x, y))
# The bound plus one f32 ulp at the data's magnitude (~11: 2^-20).
assert err <= 1e-3 + 1e-6, "max error %g exceeds the bound" % err
print("round trip: max error %.6g" % err)
PY

# Flip one byte in the middle of the last chunk's payload.
python3 - "$WORK/t1.csz" "$WORK/bad.csz" <<'PY'
import sys
data = bytearray(open(sys.argv[1], "rb").read())
data[len(data) - 1000] ^= 0x5A
open(sys.argv[2], "wb").write(data)
PY
set +e
"$CLI" decompress "$WORK/bad.csz" "$WORK/bad.f32"
strict=$?
"$CLI" decompress "$WORK/bad.csz" "$WORK/bad.f32" --lenient
lenient=$?
set -e
if [ "$strict" -ne 1 ] || [ "$lenient" -ne 3 ]; then
  echo "corrupt file: decompress exited $strict (want 1)," \
    "--lenient exited $lenient (want 3)" >&2
  exit 1
fi
echo "CLI smoke passed."
