#!/usr/bin/env bash
# Configure a fresh sanitized build tree and run tests under it.
#
# Usage: tools/run_sanitized.sh [--tsan|--verify] [build-dir] [ctest args...]
#
# Default mode builds with ASan+UBSan and runs the full suite. --tsan builds
# with ThreadSanitizer (its own build dir: the two sanitizers cannot share
# object files) and runs the concurrency-sensitive suites — the pgsi::par
# pool, the parallel BEM assembly and its concurrent lazy fills, the dense
# kernels, the parallel extraction kernels (tree-EMF product, conductance
# solves), the FFT/GMRES numerics, the one-dispatch Toeplitz/H-matrix
# operator applies, the iterative solver and its sweep engine, and the
# pgsi::robust recovery /
# fault-injection suites (the FaultInjector and the solver recovery ladders
# are reached from pool workers) — unless explicit ctest args are given.
#
# --verify runs the property-based harness under both sanitizers: a 25
# iteration all-suite pgsi_verify campaign under ASan+UBSan (randomized
# geometries drive memory-error-prone assembly/solve paths), then the
# backend-equivalence suite under TSan (the dense-vs-iterative cross-check
# exercises the pool, the displacement cache, and the FFT operator
# concurrently).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

mode=address
case "${1:-}" in
  --tsan)
    mode=thread
    shift
    ;;
  --verify)
    mode=verify
    shift
    ;;
esac

if [[ $mode == verify ]]; then
  asan_dir="${1:-$repo_root/build-sanitize}"
  tsan_dir="$repo_root/build-tsan"
  export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=0}"
  export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"

  cmake -B "$asan_dir" -S "$repo_root" -DPGSI_SANITIZE=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$asan_dir" -j"$(nproc)" --target pgsi_verify
  echo "== ASan/UBSan verify campaign =="
  "$asan_dir/tools/pgsi_verify" --iters 25 --seed 1 --suite all

  cmake -B "$tsan_dir" -S "$repo_root" -DPGSI_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$tsan_dir" -j"$(nproc)" --target pgsi_verify
  echo "== TSan backend-equivalence campaign =="
  "$tsan_dir/tools/pgsi_verify" --iters 10 --seed 1 --suite backends
  exit 0
fi

if [[ $mode == thread ]]; then
  default_dir="$repo_root/build-tsan"
else
  default_dir="$repo_root/build-sanitize"
fi
build_dir="${1:-$default_dir}"
shift || true

if [[ $mode == thread ]]; then
  cmake -B "$build_dir" -S "$repo_root" -DPGSI_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
else
  cmake -B "$build_dir" -S "$repo_root" -DPGSI_SANITIZE=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
fi
cmake --build "$build_dir" -j"$(nproc)"

# halt_on_error keeps ctest exit codes meaningful; UBSan prints where it
# fired; TSan's second_deadlock_stack names both locks of a lock-order report.
export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=0}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"

cd "$build_dir"
if [[ $mode == thread && $# -eq 0 ]]; then
  ctest --output-on-failure -j"$(nproc)" \
    -R 'Parallel|BemCache|BemLazy|Gemm|Lu\.|Cholesky|DirectSolver|ExtractEquivalence|Fft|Gmres|OperatorApply|IterativeSolver|SweepEngine|Robust|RobustEnv|ObsMetrics|ObsTest|ReportTest|JsonParser|BenchGate|ServeEnv|ServeEngine|ModelCache|Journal|Hmatrix|Aca|Transient'
else
  ctest --output-on-failure -j"$(nproc)" "$@"
fi
