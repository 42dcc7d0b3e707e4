#!/usr/bin/env bash
# Full CI gate: build, test, formatting, lints. Run from the repo root.
#
#   ./ci.sh           tier-1 gate only
#   ./ci.sh --check   tier-1 gate, then the perf basket in regression-check
#                     mode: fails if simulator throughput drops >25% below
#                     the committed results/BENCH_perf.json baseline (see
#                     EXPERIMENTS.md, "Performance"). The fresh measurement
#                     is written to results/BENCH_perf.current.json as the
#                     run's trajectory artifact; the committed baseline is
#                     never overwritten.
#   ./ci.sh --miri    tier-1 gate, then `cargo miri test` on the pure
#                     foundation crates (opt-in: miri is slow and needs the
#                     nightly component; the gate fails if it is missing).
set -euo pipefail
cd "$(dirname "$0")"

# Stage headers. A stage's wall time is printed when it ends, e.g.
# "==> cargo test (41 s)", so a slow stage names itself.
stage=""
stage() {
  [[ -z "$stage" ]] || echo "==> $stage ($SECONDS s)"
  stage="$1"
  SECONDS=0
  [[ -z "$stage" ]] || echo "==> $stage"
}

perf_check=0
miri=0
for arg in "$@"; do
  case "$arg" in
    --check) perf_check=1 ;;
    --miri) miri=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

stage "cargo build --release"
cargo build --release --workspace

stage "benchmark package compiles (perfbench)"
# perfbench/ is its own Cargo workspace building crates/* by path, so the
# workspace build above does not cover it; an API change it relies on
# (isrf_serve::Json, Machine::run, prepare_app, ...) must fail here, not
# only when the benchmark runs.
cargo check --offline --manifest-path perfbench/Cargo.toml

stage "cargo test"
cargo test -q --workspace

stage "cargo fmt --check"
cargo fmt --all --check

stage "cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

stage "cargo doc (deny warnings)"
# Our crates only: --workspace would also pull in the vendored stand-ins,
# whose docs we do not police.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
  -p isrf -p isrf-core -p isrf-trace -p isrf-sram -p isrf-mem \
  -p isrf-kernel -p isrf-sim -p isrf-verify -p isrf-apps -p isrf-lang \
  -p isrf-check -p isrf-serve -p isrf-bench

stage "static verification (all apps x all configs)"
# Every shipped benchmark program must pass the isrf-verify hazard
# analyzer on every paper configuration, plus the analyzer's own negative
# corpus (run above as part of the workspace tests, repeated here so a
# filtered test run cannot skip it).
./target/release/verify all all
cargo test -q -p isrf-verify

stage "analyzer report drift check (golden reports)"
# The full analyzer report — diagnostics, warnings, per-kernel pressure
# and the static cycle floor — for all 8 apps x 4 configs on both sizing
# profiles must match the committed goldens byte-for-byte. Regenerate
# with `verify all all [--paper] --report <file>` when a change is
# intentional.
./target/release/verify all all --check results/VERIFY_report.json
./target/release/verify all all --paper --check results/VERIFY_report_paper.json

stage "static cycle floor vs simulation (both engines, both profiles)"
# The model's whole-program cycle lower bound must be sound (floor <=
# simulated cycles under Tape AND Interp) and not uselessly loose
# (floor >= MIN_FLOOR_PCT of simulated; committed in the verify bin) on
# every app x config point.
./target/release/verify all all --cycles
./target/release/verify all all --paper --cycles

stage "trace smoke test"
# One app on one config: the audit must pass (exit 0) and the emitted
# Chrome trace must parse as JSON. Prefer an external JSON parser when one
# exists; otherwise the trace binary's built-in validator is the gate —
# either way an invalid trace FAILS the build.
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
./target/release/trace sort isrf4 --out-dir "$smoke_dir"
smoke_json="$smoke_dir/sort_isrf4.trace.json"
if command -v python3 >/dev/null 2>&1; then
  python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$smoke_json"
elif command -v node >/dev/null 2>&1; then
  node -e "JSON.parse(require('fs').readFileSync(process.argv[1]))" "$smoke_json"
else
  echo "no python3/node; using the built-in validator"
  ./target/release/trace --validate "$smoke_json"
fi

stage "figures drift check (golden figure outputs)"
# Every table and figure on both sizing profiles must match the committed
# outputs byte-for-byte. Regenerate with
# `figures all [--paper] > results/figures_{small,paper}.txt` when a change
# is intentional.
./target/release/figures all > "$smoke_dir/figures_small.txt"
diff -u results/figures_small.txt "$smoke_dir/figures_small.txt"
./target/release/figures all --paper > "$smoke_dir/figures_paper.txt"
diff -u results/figures_paper.txt "$smoke_dir/figures_paper.txt"

stage "engine differential (tape vs interpreter)"
# The compiled-tape engine must be unobservable next to the graph-walking
# interpreter: identical stats, word-for-word identical trace streams, and
# identical output memory on a conditional-stream point (sort ISRF4), an
# indexed-landing point (filter Base), a cross-lane gather point
# (spmv ISRF4), an in-lane halo-reuse point (stencil ISRF4), and an
# irregular-frontier replication point (bfs Base).
./target/release/engines

stage "serve smoke test"
# Spawn the batch server on an ephemeral port with a tiny queue, submit
# sort/ISRF4 and filter/Base, poll to completion and diff the served
# results word-for-word against direct one-shot runs, exercise a 429
# (queue bound of 2), the memoized resubmission path, and a clean
# POST /shutdown drain.
./target/release/loadtest smoke --bin target/release/isrf-serve

stage "snapshot/resume differential + bisector negative test"
# Pausing sort/ISRF4 halfway, serializing the machine, restoring into a
# fresh one and resuming must be byte-identical to an uninterrupted run
# under both engines; and the first-divergence bisector must localize a
# deliberately injected single-word SRF corruption to its exact cycle.
./target/release/snapshot
./target/release/snapshot negative

if [[ "$miri" == 1 ]]; then
  stage "cargo miri test (foundation crates)"
  cargo miri test -q -p isrf-core -p isrf-sram
fi

if [[ "$perf_check" == 1 ]]; then
  stage "perf basket (--check against committed baseline)"
  ./target/release/perf --check results/BENCH_perf.json \
    --out results/BENCH_perf.current.json --runs 5
fi

stage ""
echo "CI OK"
