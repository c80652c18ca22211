#!/usr/bin/env bash
# Build the benchmark and the volcomp CLI from source into .bench_build,
# then run the benchmark from the repository root.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --check
set -euo pipefail
build_dir=.bench_build
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
dune build --root . --build-dir "$build_dir" --profile release --cache=disabled \
  ./perfbench/main.exe ./bin/main.exe 1>&2
exec "$build_dir/default/perfbench/main.exe" --out-dir "$build_dir/perfbench-out" "$@"
