#!/usr/bin/env bash
# Builds the Release perf microbenchmarks and records a BENCH_*.json
# trajectory point. Run from anywhere inside the repo:
#
#   tools/run_bench.sh [extra google-benchmark flags...]
#
# Output lands in bench_results/BENCH_<utc-date>_<git-sha>.json (with a
# -dirty suffix on the sha over an uncommitted tree) so successive PRs
# accumulate a comparable series (same machine assumed).
#
# The recorded JSON must come from a Release build of *our* code: the
# script forces CMAKE_BUILD_TYPE=Release (overriding any stale cache) and
# refuses to keep a run whose "resmodel_build_type" context key is not
# "release". Note google-benchmark's own "library_build_type" key
# describes the distro-packaged libbenchmark shared object — Debian builds
# it without NDEBUG, so that key reads "debug" no matter how resmodel is
# compiled; resmodel_build_type (emitted by perf_microbench itself) is the
# authoritative one.
set -euo pipefail

repo_root="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
build_dir="$repo_root/build-release"
out_dir="$repo_root/bench_results"

cmake -B "$build_dir" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=Release \
  -DRESMODEL_BUILD_TESTS=OFF \
  -DRESMODEL_BUILD_EXAMPLES=OFF >/dev/null

cached_type="$(grep -E '^CMAKE_BUILD_TYPE:' "$build_dir/CMakeCache.txt" \
               | cut -d= -f2)"
if [[ "$cached_type" != "Release" ]]; then
  echo "error: $build_dir is configured as '$cached_type', not Release" >&2
  echo "hint: rm -rf $build_dir and rerun" >&2
  exit 1
fi

cmake --build "$build_dir" --target perf_microbench -j "$(nproc)"

mkdir -p "$out_dir"
stamp="$(date -u +%Y%m%d)"
sha="$(git -C "$repo_root" rev-parse --short HEAD 2>/dev/null || echo nogit)"
# A run over a modified tree measures that tree, not the commit: say so in
# the name. Untracked files count; ignored ones (build trees) do not.
if [[ "$sha" != nogit && -n "$(git -C "$repo_root" status --porcelain)" ]]
then
  sha="$sha-dirty"
fi
out_file="$out_dir/BENCH_${stamp}_${sha}.json"

# The record is written to a .tmp and only renamed into place once every
# validation below has passed: a benchmark crash, a full disk, or a ^C
# mid-run can no longer leave a truncated BENCH_*.json behind for later
# baselines to trip over (one such corrupt record shipped in bb2d309).
tmp_file="$out_file.tmp"
trap 'rm -f "$tmp_file"' EXIT

"$build_dir/bench/perf_microbench" \
  --benchmark_format=json \
  --benchmark_out="$tmp_file" \
  --benchmark_out_format=json \
  "$@"

if ! grep -q '"resmodel_build_type": "release"' "$tmp_file"; then
  echo "error: recorded run was not a Release build of resmodel;" \
       "discarded it" >&2
  exit 1
fi

# Cross-backend/cross-machine trajectories are only comparable when the
# record says which dispatch arm ran and on what silicon; refuse to keep
# a run missing the provenance keys (emitted by perf_microbench itself).
for key in resmodel_backend resmodel_cpu_features; do
  if ! grep -q "\"$key\": " "$tmp_file"; then
    echo "error: recorded run lacks the '$key' context key;" \
         "discarded it" >&2
    exit 1
  fi
  grep -o "\"$key\": \"[^\"]*\"" "$tmp_file" | head -1
done

# The record must be whole, parseable JSON before it earns its real name.
if ! python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$tmp_file"
then
  echo "error: recorded run is not valid JSON; discarded it" >&2
  exit 1
fi

mv "$tmp_file" "$out_file"
trap - EXIT

# Pointer to the newest record. Date+sha filenames do not sort
# chronologically (the sha part is arbitrary), so consumers — the CI
# counter check, tools/compare_bench.py invocations — resolve the
# baseline through this file instead of ls|sort.
echo "BENCH_${stamp}_${sha}.json" > "$out_dir/LATEST"

echo "wrote $out_file"
