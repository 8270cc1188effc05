#!/usr/bin/env bash
# Local CI gate: build, test, lint, and format-check the whole workspace.
#
# Usage: ./ci.sh
#
# The lint and format steps degrade gracefully when the toolchain lacks
# the `clippy` or `rustfmt` components (e.g. a minimal container); the
# build and test steps are mandatory. `csched-core`, `csched-ir`,
# `csched-eval` and each csched-eval binary (`ablation`, `chaos`, `dash`,
# `explore`, `one-cell`, `oracle`, `paper-report`, `scale-perf`, `serve`,
# `soak`, `table1`) carry
# `deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)` outside
# test code, so the clippy step doubles as the panic-free gate for the
# scheduling pipeline, the evaluation harness, the design-space search,
# the service, and the chaos/soak tooling.

set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n==> %s\n' "$*"; }

step "cargo build --release --workspace"
cargo build --release --workspace

# The benchmark is a workspace of its own, so the build above never
# compiles it; a removed or renamed item it imports fails here instead of
# when the benchmark first runs.
step "cargo check perfbench"
cargo check --offline --manifest-path perfbench/Cargo.toml

step "cargo test -q --workspace"
cargo test -q --workspace

# Debug-profile engine cross-checks: under debug assertions the engine
# reruns every §4.3 closing it replays and compares the two, and checks
# every memoised write-stub ranking against a fresh one (DESIGN.md §14).
# FIR-INT on distributed binds half its multiplies' values to input slot
# 1 (DESIGN.md §5), so its routes run through both inputs' files; Sort on
# clustered4 is the grid's slowest cell and replays the most closings.
# Both run with `--explain`, which traces the search: an untraced run
# records no events, so only a traced one lets the replay check compare
# the events a replayed closing re-emits, its `CopyFailed` events among
# them. Together about 3 s.
step "debug cross-check smoke (FIR-INT distributed, Sort clustered4)"
cargo run -q -p csched-eval --bin one-cell -- FIR-INT distributed --explain > /dev/null
cargo run -q -p csched-eval --bin one-cell -- Sort clustered4 --explain > /dev/null

# Seeded multi-fault chaos smoke: a tiny deterministic campaign (a few
# hundred milliseconds on the release build from step 1) that degrades
# the distributed machine by random fault combinations and asserts the
# watchdog contract — valid schedule, typed error, or in-deadline stop;
# never a panic, never a budget overrun. Exit 1 means a violation.
step "chaos smoke campaign (seeded, deterministic)"
cargo run -q --release -p csched-eval --bin chaos -- \
    --seed 3 --runs 6 --max-faults 2 --step-limit 20000 --kernels 2 \
    --arch distributed > /dev/null

# Full-grid explain agreement: every Table 1 kernel × Imagine
# organisation, checked against independent RecMII/ResMII computations.
# Ignored under the debug profile (minutes); seconds on release.
step "explain full-grid agreement (release)"
cargo test -q --release -p csched-eval --test explain_grid -- --include-ignored

# Golden byte-identity for the full paper grid: every kernel ×
# organisation cell must schedule to exactly the pinned
# (II, copies, attempts) triple — any drift in a candidate order,
# tie-break, or table admission fails here even if the schedule stays
# valid. Ignored under the debug profile (minutes); seconds on release.
step "golden (II, copies, attempts) triples on the full grid (release)"
cargo test -q --release -p csched-eval --test grid_golden -- --include-ignored

# Decision-stream golden: an FNV-1a digest of every trace event and the
# final schedule of the 40 grid cells under five configurations and the
# anytime ladder (at 200,000 steps, and at 5,000 and 50,000, which stop
# the ladder on 18 and 2 cells) must match the pinned digests, so a
# pure speed-up that changes any search decision (even at an earlier II)
# fails here. A second digest pins the untraced anytime answers alone.
# Ignored under the debug profile; about half a minute on release.
step "golden decision-stream digests on the full grid (release)"
cargo test -q --release -p csched-core --test decision_golden -- --include-ignored

# Anytime ladder: on the 40 grid cells at 200,000, 50,000 and 5,000
# steps an untraced anytime call must answer, report, spend and count
# rejects exactly as a traced call does, with the pinned spend and
# degraded counts; at 200,000 steps the ladder's decision stream must
# equal a single run's. The rung tests pin an input that only rung 3, 4
# or 5 answers on the toy machine, each schedule validated. The grid
# tests and the rung 5 case (a 2,100-add recurrence) are ignored under
# the debug profile; the whole file takes seconds on release.
step "anytime ladder equivalence on the full grid and rungs 3-5 (release)"
cargo test -q --release -p csched-core --test anytime_ladder -- --include-ignored

# Design-space exploration smoke: a small sampled sweep on 2 worker
# threads must print JSON byte-identical to the single-threaded run
# (candidates merge in index order; the report carries no thread count
# or wall clock). The full determinism suite — including the ignored
# 50-candidate acceptance sweep at --jobs 8 — then runs on the release
# profile, where it takes seconds.
step "explore smoke (thread-count invariance)"
cargo run -q --release -p csched-eval --bin explore -- \
    --kernels Merge,Sort --candidates 6 --rounds 0 --step-limit 200000 \
    --jobs 1 --json > EXPLORE_ci_j1.json
cargo run -q --release -p csched-eval --bin explore -- \
    --kernels Merge,Sort --candidates 6 --rounds 0 --step-limit 200000 \
    --jobs 2 --json > EXPLORE_ci_j2.json
diff EXPLORE_ci_j1.json EXPLORE_ci_j2.json

step "explore determinism suite incl. acceptance sweep (release)"
cargo test -q --release -p csched-eval --test explore_determinism -- --include-ignored

# Bottleneck-attribution smoke: one-cell's explanation must name a binding.
step "explain smoke (FFT on distributed)"
cargo run -q --release -p csched-eval --bin one-cell -- FFT distributed --explain-json \
    | grep -q '"binding"'

# Search-failure smoke: `--explain` lists the IIs the search gave up on,
# read from the trace's `IiFailed` events. Sort on clustered4 fails IIs
# 7-11 and 13 before it schedules at 15. grep reads the whole output (no
# -q), so one-cell never writes into a closed pipe.
step "failed-II smoke (Sort on clustered4)"
cargo run -q --release -p csched-eval --bin one-cell -- Sort clustered4 --explain \
    | grep '^  II [0-9]* failed at op[0-9]* ' > /dev/null

# Exact-oracle gap smoke: certify three small paper-grid cells under a
# tight per-cell step budget and check the gap-report JSON schema. The
# Merge kernel certifies on central/clustered2/clustered4 well inside
# 500k steps each (clustered4 also exhibits a real heuristic gap of 2);
# a soundness disagreement between the oracle and the validator — or a
# cell failing to certify — fails this step.
step "exact-oracle gap smoke (3 certified cells + gap-v1 schema)"
cargo run -q --release -p csched-eval --bin oracle -- \
    --cell Merge central --cell Merge clustered2 --cell Merge clustered4 \
    --exact-steps 500000 > GAP_ci.json
grep -q '"schema":"gap-v1"' GAP_ci.json
grep -q '"certified":3' GAP_ci.json
grep -q '"disagreements":0' GAP_ci.json
rm -f GAP_ci.json

# Scheduler-service smoke: start the server on a persistent cache, drive
# malformed + cold + warm traffic (the bench requires every warm reply to
# be a cache hit of the cold answer), SIGKILL the server mid-request,
# restart it on the same journal, and assert the cache reloads with zero
# corrupt or quarantined entries and keeps serving warm hits.
step "serve smoke (overload/crash/cache consistency)"
SERVE_DIR="$(mktemp -d)"
SERVE_CACHE="$SERVE_DIR/serve_cache.jsonl"
serve_wait_addr() { # log-file -> prints host:port once the server is up
    local log="$1" addr=""
    for _ in $(seq 1 300); do
        addr="$(sed -n 's/^listening on //p' "$log")"
        if [ -n "$addr" ]; then printf '%s' "$addr"; return 0; fi
        sleep 0.1
    done
    echo "serve never reported its address" >&2
    return 1
}
cargo run -q --release -p csched-eval --bin serve -- \
    --addr 127.0.0.1:0 --cache "$SERVE_CACHE" > "$SERVE_DIR/serve1.log" &
SERVE_PID=$!
SERVE_ADDR="$(serve_wait_addr "$SERVE_DIR/serve1.log")"
cargo run -q --release -p csched-eval --bin serve -- \
    --client "$SERVE_ADDR" --malformed > /dev/null
# A machine text declaring `latency 0` is a typed one-line error, not a
# worker killed by a panic and an empty reply. Sent over bash's /dev/tcp
# as raw SCHED framing, twice: a text that fails to parse is never
# memoised, so the second reply must be the same error line.
BAD_KERNEL=$'kernel "k" {\n  block b {\n    x = iadd 1, 2\n  }\n}\n'
BAD_ARCH=$'machine "m" {\n  rf R capacity 8 rports 2 wports 1\n  bus B\n'
BAD_ARCH+=$'  fu A class alu inputs 2 {\n    op iadd latency 0\n  }\n'
BAD_ARCH+=$'  drive A -> B\n  tap B -> R[0]\n  feed R[0] -> A.0\n  feed R[1] -> A.1\n}\n'
bad_sched() { # prints the first reply line to the latency-0 request
    exec 3<>"/dev/tcp/${SERVE_ADDR%:*}/${SERVE_ADDR##*:}"
    printf 'SCHED\nKERNEL %d\n%sARCH %d\n%sEND\n' "${#BAD_KERNEL}" "$BAD_KERNEL" \
        "${#BAD_ARCH}" "$BAD_ARCH" >&3
    head -1 <&3
    exec 3<&-
}
BAD_REPLY="$(bad_sched)"
BAD_AGAIN="$(bad_sched)"
case "$BAD_REPLY" in
    "ERR malformed machine:"*) ;;
    *) echo "latency 0 got: $BAD_REPLY" >&2; exit 1 ;;
esac
if [ "$BAD_AGAIN" != "$BAD_REPLY" ]; then
    echo "latency 0 sent again got: $BAD_AGAIN" >&2
    exit 1
fi
# A wall-clock deadline can only stop the anytime ladder, never shape its
# answer: the reply is `ERR deadline`, which caches nothing, or the
# deadline-free answer, which is cached. A TRACE (it bypasses the cache)
# gives the deadline-free answer; the same request without a deadline
# must then miss and answer it, or hit it, and end `degraded=0`. This
# runs before the suite bench, which would otherwise have cached the
# cell already.
FRESH_OK="$(cargo run -q --release -p csched-eval --bin serve -- \
    --client "$SERVE_ADDR" --kernel FIR-INT --arch distributed \
    --trace --events 1 | tail -1)"
WALL_REPLY="$(cargo run -q --release -p csched-eval --bin serve -- \
    --client "$SERVE_ADDR" --kernel FIR-INT --arch distributed --wall-ms 400 \
    || true)"
NEXT_REPLY="$(cargo run -q --release -p csched-eval --bin serve -- \
    --client "$SERVE_ADDR" --kernel FIR-INT --arch distributed)"
case "$WALL_REPLY" in
    "ERR deadline "*) NEXT_CACHE="CACHE miss" ;;
    "CACHE miss"$'\n'"$FRESH_OK") NEXT_CACHE="CACHE hit" ;;
    *) echo "--wall-ms 400 got: $WALL_REPLY" >&2; exit 1 ;;
esac
if [ "$NEXT_REPLY" != "$NEXT_CACHE"$'\n'"$FRESH_OK" ]; then
    echo "after '${WALL_REPLY%%$'\n'*}' got: $NEXT_REPLY" >&2
    exit 1
fi
case "$FRESH_OK" in
    "OK "*" degraded=0") ;;
    *) echo "deadline-free answer: $FRESH_OK" >&2; exit 1 ;;
esac
# A cached answer is served only at the step limit it was computed
# under: the default limit's FIR-INT × distributed answer is cached now
# (about 15,500 steps), yet at 5,000 steps, too few for that cell, the
# reply must still be the cold server's `ERR deadline`.
LIMIT_REPLY="$(cargo run -q --release -p csched-eval --bin serve -- \
    --client "$SERVE_ADDR" --kernel FIR-INT --arch distributed --limit 5000 \
    || true)"
case "$LIMIT_REPLY" in
    "ERR deadline "*) ;;
    *) echo "--limit 5000 after the default request got: $LIMIT_REPLY" >&2; exit 1 ;;
esac
cargo run -q --release -p csched-eval --bin serve -- \
    --client "$SERVE_ADDR" --bench-suite
# SIGKILL mid-request: fire a request and kill the server under it; the
# flushed journal must survive (a torn tail is repaired, never corrupt).
cargo run -q --release -p csched-eval --bin serve -- \
    --client "$SERVE_ADDR" --kernel FFT --arch clustered4 > /dev/null 2>&1 &
SERVE_KILL_CLIENT=$!
kill -9 "$SERVE_PID"
wait "$SERVE_KILL_CLIENT" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
cargo run -q --release -p csched-eval --bin serve -- \
    --addr 127.0.0.1:0 --cache "$SERVE_CACHE" > "$SERVE_DIR/serve2.log" &
SERVE_PID=$!
SERVE_ADDR="$(serve_wait_addr "$SERVE_DIR/serve2.log")"
grep -q ', 0 quarantined, 0 corrupt lines,' "$SERVE_DIR/serve2.log"
cargo run -q --release -p csched-eval --bin serve -- \
    --client "$SERVE_ADDR" --kernel Merge --arch distributed \
    | grep -q 'CACHE hit'
# The cache holds one entry per (key, step limit): Merge × distributed
# at 5,000 steps misses and is cached beside the default-limit entry,
# which must still hit.
FIVE_K_REPLY="$(cargo run -q --release -p csched-eval --bin serve -- \
    --client "$SERVE_ADDR" --kernel Merge --arch distributed --limit 5000)"
case "$FIVE_K_REPLY" in
    "CACHE miss"$'\n'"OK "*) ;;
    *) echo "--limit 5000 got: $FIVE_K_REPLY" >&2; exit 1 ;;
esac
DEFAULT_REPLY="$(cargo run -q --release -p csched-eval --bin serve -- \
    --client "$SERVE_ADDR" --kernel Merge --arch distributed)"
case "$DEFAULT_REPLY" in
    "CACHE hit"$'\n'"OK "*) ;;
    *) echo "default limit after --limit 5000 got: $DEFAULT_REPLY" >&2; exit 1 ;;
esac
# Telemetry smoke: STATS and METRICS read one ledger, so after the
# restarted server's one malformed request both count it; METRICS must
# lead with the schema-versioned JSON line and every exposition line
# must match the Prometheus text grammar; TRACE must stream JSONL that
# terminates with its summary and status lines within the event cap,
# and a zero cap still reports what it dropped; the dashboard renders a
# frame from the same endpoints.
cargo run -q --release -p csched-eval --bin serve -- \
    --client "$SERVE_ADDR" --malformed > /dev/null
cargo run -q --release -p csched-eval --bin serve -- \
    --client "$SERVE_ADDR" --stats > "$SERVE_DIR/stats.txt"
grep -q '"malformed":1,' "$SERVE_DIR/stats.txt"
cargo run -q --release -p csched-eval --bin serve -- \
    --client "$SERVE_ADDR" --metrics > "$SERVE_DIR/metrics.txt"
head -1 "$SERVE_DIR/metrics.txt" | grep -q '^{"schema":1,'
head -1 "$SERVE_DIR/metrics.txt" | grep -q '"malformed":1,'
grep -q '^csched_requests_total{outcome="ok"} ' "$SERVE_DIR/metrics.txt"
! tail -n +2 "$SERVE_DIR/metrics.txt" \
    | grep -qvE '^(# (HELP|TYPE) csched_[a-z_]+ .+|csched_[a-z_]+(\{[^}]*\})? [0-9]+|)$'
cargo run -q --release -p csched-eval --bin serve -- \
    --client "$SERVE_ADDR" --kernel Merge --arch distributed \
    --trace --events 64 > "$SERVE_DIR/trace.txt"
[ "$(grep -c '^{"req":' "$SERVE_DIR/trace.txt")" -le 64 ]
grep -q '^TRACE end events=' "$SERVE_DIR/trace.txt"
tail -1 "$SERVE_DIR/trace.txt" | grep -q '^OK ii='
cargo run -q --release -p csched-eval --bin serve -- \
    --client "$SERVE_ADDR" --kernel Merge --arch distributed \
    --trace --events 0 > "$SERVE_DIR/trace0.txt"
grep -q '^TRACE end events=0 .* truncated=1$' "$SERVE_DIR/trace0.txt"
# The client's step limit rides on TRACE too: one step cannot schedule a
# loop (the client exits 1 on the ERR line).
{ cargo run -q --release -p csched-eval --bin serve -- \
    --client "$SERVE_ADDR" --kernel Merge --arch distributed \
    --trace --limit 1 || true; } | tail -1 | grep -q '^ERR deadline '
cargo run -q --release -p csched-eval --bin dash -- \
    --addr "$SERVE_ADDR" --once | grep -q '^csched dash'
kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
rm -rf "$SERVE_DIR"

# Chaos soak smoke: the soak harness drives seeded mixed good/evil
# clients through the fault-injecting proxy against a live server with
# one mid-run SIGKILL+restart (plus a final verification restart). The
# fixed seed is known to inject at least one disconnect and one
# slowloris in this window (soak exits 1 if a required kind never
# fired). The binary asserts the full invariant set internally:
# retrying clients reach 100% eventual success while the no-retry
# control client fails at least once, attempts <= limit on every
# response, compaction runs (12 keys over the 8-entry cap), and after
# the final SIGKILL+restart the cache reports 0 quarantined / 0 corrupt
# and serves every key byte-identically to the first recorded answer.
step "chaos soak smoke (seeded proxy faults + SIGKILL + compaction)"
SOAK_CACHE="$(mktemp -u)"
cargo run -q --release -p csched-eval --bin soak -- \
    --seed 42 --clients 4 --rounds 2 --fault-permille 250 --kills 1 \
    --compact-entries 8 --require-faults disconnect,slowloris \
    --cache "$SOAK_CACHE" \
    --server-bin target/release/serve
rm -f "$SOAK_CACHE"

# Doctests, the README's Rust examples included (the root package's
# `ReadmeDoctests`).
step "cargo test --doc --workspace"
cargo test -q --doc --workspace

step "cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

if cargo clippy --version >/dev/null 2>&1; then
    step "cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
else
    step "cargo clippy unavailable; skipping lint gate"
fi

if cargo fmt --version >/dev/null 2>&1; then
    step "cargo fmt --check"
    cargo fmt --check
else
    step "rustfmt unavailable; skipping format check"
fi

step "CI passed"
