#!/usr/bin/env bash
# Repo CI: formatting, lints, then the tier-1 gate (release build + tests).
# Run from the repo root: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== strict clippy: analyzer crates must be panic-free (unwrap/expect)"
# augem-cost, augem-prof, and augem-depan run inside tuning sweeps; a
# panic there takes the whole sweep down. Their crate roots deny
# unwrap/expect outside tests; this tier keeps the denial honest under
# -D warnings.
# augem-serve is a long-running daemon; a stray unwrap is a crashed
# worker, so it joins the panic-free tier.
cargo clippy -p augem-cost -p augem-prof -p augem-depan -p augem-serve --lib -- -D warnings

echo "== rustdoc (-D warnings): every intra-doc link resolves"
# A doc link to a renamed or deleted item is a warning, and this tier
# makes it an error.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== tier-1: cargo build --release --workspace"
# --workspace: the repo root is itself a package, so a bare `cargo build`
# would skip member-crate binaries (augem-gen, figures) used below.
cargo build --release --workspace

echo "== tier-1: cargo test -q"
cargo test -q

echo "== workspace: every crate's tests, release, nothing excluded"
# Tier-1 above tests only the root package. This tier runs every test
# binary of every member crate (unit, integration and doc tests). Cargo's
# own -q would hide the "Running <binary>" headers, so the quiet flag goes
# to the test harness instead, and each binary's wall time is printed
# from its "finished in" line: test time is a measured number too.
WS_LOG=$(mktemp)
cargo test --workspace --release -- --quiet 2>&1 | tee "$WS_LOG"
echo "-- per-binary test durations (seconds)"
awk '/^ *(Running|Doc-tests) / { name = $0; sub(/^ *(Running|Doc-tests) /, "", name)
                                  sub(/target\/release\/deps\//, "", name); sub(/-[0-9a-f]+\)$/, ")", name) }
     /^test result:/ { match($0, /finished in [0-9.]+s/);
                       printf "%9s  %s\n", substr($0, RSTART + 12, RLENGTH - 13), name }' "$WS_LOG" |
  sort -rn
rm -f "$WS_LOG"

echo "== verify: static kernel verification across the kernel x ISA matrix"
# The generated winner for every kernel on every paper platform must pass
# the static verifier AND the translation validator (--verify now runs
# both; augem-gen exits non-zero on any error diagnostic or when the
# warning count exceeds --max-warnings).
for machine in sandybridge piledriver; do
  for kernel in gemm gemv ger axpy dot scal; do
    echo "-- verify $kernel on $machine"
    ./target/release/augem-gen --kernel "$kernel" --machine "$machine" \
      --verify --max-warnings 16 -o /dev/null
  done
done

echo "== equivalence matrix: kernels x machines x vectorization strategies"
# Every configuration the pipeline can produce — including the tuner's
# full candidate sets — must carry a translation-validation proof.
cargo test --release -q -p augem-verify --test equiv_matrix

echo "== equivalence mutation suite: injected defects must be refuted"
cargo test --release -q -p augem-verify --test equiv_mutation

echo "== verify bench: per-kernel verification wall time"
./target/release/figures verify
test -f BENCH_verify.json

echo "== tune bench: decoded-engine throughput + eval-cache hit rates"
# The binary exits non-zero if the decoded engine is ever slower than
# the legacy interpreter, so this doubles as a perf-regression gate.
./target/release/figures tune
test -f BENCH_tune.json
grep -q '"schema": "augem.bench-tune/v1"' BENCH_tune.json

echo "== prof: conservation + artifact matrix"
# Per-pc cycle attribution must telescope exactly to the aggregate
# timing report for every tuner candidate, and every kernel x machine
# artifact must round-trip through the augem.profile/v1 schema.
cargo test --release -q -p augem-prof

echo "== prof bench: profiled-replay overhead gate"
# The binary exits non-zero if the profiled replay ever costs more than
# 2x the plain replay — profiling must stay cheap enough to leave on.
./target/release/figures prof
test -f BENCH_prof.json
grep -q '"schema": "augem.bench-prof/v1"' BENCH_prof.json

echo "== prof smoke: augem-gen --profile writes a valid artifact"
PROF_TMP=$(mktemp -d)
./target/release/augem-gen --kernel gemm --machine sandybridge \
  --profile="$PROF_TMP/gemm.profile.json" -o /dev/null 2>"$PROF_TMP/listing.txt"
grep -q '"schema": "augem.profile/v1"' "$PROF_TMP/gemm.profile.json"
grep -q 'mmUnrolledCOMP' "$PROF_TMP/listing.txt"
rm -rf "$PROF_TMP"

echo "== cost: machine-checked bound soundness over the full candidate space"
# Static lower bound <= simulated cycles for EVERY tuner candidate of
# every kernel family on both paper machines. Zero exceptions.
cargo test --release -q --test cost_soundness

echo "== cost: pruned sweeps preserve every winner bit-for-bit"
cargo test --release -q --test cost_pruning

echo "== cost: P001 lint agrees with the dynamic profiler"
cargo test --release -q --test lint_prof_agreement

echo "== cost bench: prune rates, winner preservation, bound-phase cost"
# The binary exits non-zero if pruning changes any winner, the bound
# phases cost >= 1% of the exhaustive sweeps, or no kernel prunes 25%.
./target/release/figures cost
test -f BENCH_cost.json
grep -q '"schema": "augem.bench-cost/v1"' BENCH_cost.json
grep -q '"winners_preserved": true' BENCH_cost.json
grep -q '"bound_phase_under_1pct": true' BENCH_cost.json

echo "== lint smoke: --lint flags the Figure-13 chain, clean on the winner"
LINT_TMP=$(mktemp -d)
# The naive kernel carries the paper's scalar accumulator chain: on
# piledriver the chain exceeds the body's throughput bound and P001
# must fire statically.
./target/release/augem-gen --kernel gemm --machine piledriver \
  --naive --lint -o /dev/null 2>"$LINT_TMP/naive.txt" || true
grep -q 'P001' "$LINT_TMP/naive.txt"
# The tuned winner splits its accumulators: no performance warnings on
# either machine.
for machine in sandybridge piledriver; do
  ./target/release/augem-gen --kernel gemm --machine "$machine" \
    --lint -o /dev/null 2>"$LINT_TMP/tuned.txt"
  grep -q '0 performance warning(s)' "$LINT_TMP/tuned.txt"
done
rm -rf "$LINT_TMP"

echo "== depan: dependence analysis + legality checker (unit, property, mutation)"
# The mutation suite forges one illegal transform step per case; every
# forgery must be refuted with the expected T-rule.
cargo test --release -q -p augem-depan

echo "== depan: zero T-diagnostics across the tuner candidate matrix"
# Every candidate recipe of every kernel family on both paper machines
# must replay through the checker with no diagnostics at all.
cargo test --release -q --test depan_matrix

echo "== depan bench: false-rejection + analysis-cost gates"
# The binary exits non-zero if the legality filter rejects any current
# candidate, changes any winner, or costs >= 1% of sweep wall time.
./target/release/figures depan
test -f BENCH_depan.json
grep -q '"schema": "augem.bench-depan/v1"' BENCH_depan.json
grep -q '"zero_false_rejections": true' BENCH_depan.json
grep -q '"winners_preserved": true' BENCH_depan.json
grep -q '"check_phase_under_1pct": true' BENCH_depan.json

echo "== depan smoke: --check-transforms proves the winner's recipe"
DEPAN_TMP=$(mktemp -d)
./target/release/augem-gen --kernel gemm --machine sandybridge \
  --check-transforms -o /dev/null 2>"$DEPAN_TMP/tchecks.txt"
grep -q 'transform legality: 0 error(s)' "$DEPAN_TMP/tchecks.txt"
rm -rf "$DEPAN_TMP"

echo "== decoded engine: differential suite (decoded == legacy, bit for bit)"
cargo test --release -q --test sim_decoded_differential

echo "== resilience: fault-injection matrix"
# Every injection site x fault class scenario must terminate with a
# verified kernel or a typed degradation — never a panic or abort.
cargo test --release -q --test resilience

echo "== resilience: kill-and-resume smoke test"
# A run killed mid-sweep (--inject-crash) and resumed from its journal
# must reproduce the uninterrupted run's winner bit-for-bit.
RESIL_TMP=$(mktemp -d)
if ./target/release/augem-gen --kernel axpy --machine sandybridge \
  --checkpoint "$RESIL_TMP/axpy.jsonl" --inject-crash 3 -o "$RESIL_TMP/killed.s" 2>/dev/null; then
  echo "FAIL: crash-injected run should exit non-zero"; exit 1
fi
test -s "$RESIL_TMP/axpy.jsonl"
./target/release/augem-gen --kernel axpy --machine sandybridge \
  --checkpoint "$RESIL_TMP/axpy.jsonl" --resume -o "$RESIL_TMP/resumed.s"
./target/release/augem-gen --kernel axpy --machine sandybridge -o "$RESIL_TMP/reference.s"
cmp "$RESIL_TMP/resumed.s" "$RESIL_TMP/reference.s"
rm -rf "$RESIL_TMP"

echo "== serve: daemon fault matrix + protocol + store recovery"
# Worker panics, commit-window crashes, corrupt entries, deadline and
# queue shedding, breaker trips — every row must end in a typed
# response and a bit-identical recovered store.
cargo test --release -q -p augem-serve

echo "== serve: journal-corruption property suite"
# Random truncations and bit flips of both persistent journals: load
# never panics, drops only the damaged lines, counts every drop.
cargo test --release -q --test journal_corruption

echo "== serve: kill-9-and-restart recovery smoke test"
# The daemon is killed (exit 9) in the commit window between the
# journal append and the entry write. The restarted daemon must drop
# the dangling commit, re-serve the pending requests, and converge to
# a store bit-identical to a never-crashed run.
SERVE_TMP=$(mktemp -d)
cat > "$SERVE_TMP/reqs.jsonl" <<'EOF'
{"id":"k1","op":"tune","kernel":"daxpy","machine":"snb"}
{"id":"k2","op":"tune","kernel":"dscal","machine":"snb"}
{"id":"bye","op":"shutdown"}
EOF
set +e
./target/release/augem-serve --cache-dir "$SERVE_TMP/crashed" --workers 1 \
  --inject-crash-commit 1 < "$SERVE_TMP/reqs.jsonl" > "$SERVE_TMP/crashed.out" 2>/dev/null
code=$?
set -e
test "$code" -eq 9
# The crash window left a journaled commit with no entry file...
test "$(ls "$SERVE_TMP/crashed/entries" | wc -l)" -eq 0
test "$(wc -l < "$SERVE_TMP/crashed/journal.jsonl")" -eq 2
# ...and the dying daemon answered nothing for the in-flight request.
! grep -q '"k1"' "$SERVE_TMP/crashed.out"
# Restart on the same store: recovery + re-serving every request.
./target/release/augem-serve --cache-dir "$SERVE_TMP/crashed" --workers 1 \
  < "$SERVE_TMP/reqs.jsonl" > "$SERVE_TMP/restarted.out" 2>/dev/null
grep -q '"k1"' "$SERVE_TMP/restarted.out"
grep -q '"k2"' "$SERVE_TMP/restarted.out"
# A clean daemon over the same requests defines the expected bytes.
./target/release/augem-serve --cache-dir "$SERVE_TMP/ref" --workers 1 \
  < "$SERVE_TMP/reqs.jsonl" > /dev/null 2>&1
diff -r "$SERVE_TMP/crashed" "$SERVE_TMP/ref"
rm -rf "$SERVE_TMP"

echo "== serve bench: cache hit-rate, exactly-once, and recovery gates"
# The binary exits non-zero if the repeat-phase hit rate drops below
# 90%, any response is lost or duplicated across the injected
# crash-restart, or the recovered store is not bit-identical.
./target/release/figures serve
test -f BENCH_serve.json
grep -q '"schema": "augem.bench-serve/v1"' BENCH_serve.json
grep -q '"hit_rate_ge_90pct": true' BENCH_serve.json
grep -q '"exactly_once_across_crash": true' BENCH_serve.json
grep -q '"recovery_bit_identical": true' BENCH_serve.json

echo "CI OK"
