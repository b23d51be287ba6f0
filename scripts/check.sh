#!/bin/sh
# Pre-merge gate: vet, build, race-enabled tests, bench smokes, and
# the recorded perf trajectory — the dsp spectrum benchmarks, the
# spectral-campaign pair, the E6 simulation benchmarks and the engine
# pairs are benchmarked, gated against the last entry of
# BENCH_dsp.json / BENCH_campaign.json / BENCH_e6.json /
# BENCH_engines.json recorded in the same environment
# (cmd/benchrecord; a trajectory with no entry from this host fails
# the gate instead of comparing across hosts), and appended on success.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== gofmt =="
# Everything outside testdata must be gofmt-clean (fixtures include a
# deliberately unparseable file gofmt would choke on).
unformatted=$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.git/*' | xargs gofmt -l)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== mstxvet (project invariants) =="
# The internal/analysis catalog: panic quarantine, context threading,
# determinism and one metric namespace. Job state and error class are
# compiler-checked types in internal/server, as failpoint sites are
# resilient.Failpoint; retry checkpointing and the shutdown goroutine
# join are server tests, obs nil-safety an obs test, failpoint
# coverage the soak; deadlocks are left to -race, the chaos suites and
# the soak.
# Must be self-clean over the whole repo; ./... skips the nested
# mstxbench module, as go list does (suppressions need an audited
# //mstxvet:ignore <analyzer> <reason>).
go run ./cmd/mstxvet ./...

echo "== mstxvet -json (machine-readable contract) =="
# The JSON surface CI consumers parse: a clean tree is exactly the
# empty array, byte for byte.
json_out=$(go run ./cmd/mstxvet -json ./...)
if [ "$json_out" != "[]" ]; then
    echo "mstxvet -json on a clean tree printed: $json_out" >&2
    exit 1
fi

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== concurrency suites (race, unshared cache) =="
# The campaign pool, the MC engine merge path, the obs registry's
# striped histograms / span ring, the process-wide carrier-table set
# (with two E6 studies racing on it) and the process-wide FFT plan and
# split-twiddle caches behind the spectral worker detectors are the
# places a scheduling-dependent bug could hide; run them race-enabled
# with -count=2 so a cached ./... result never masks them.
go test -race -count=2 ./internal/campaign ./internal/mcengine ./internal/obs ./internal/msignal \
    ./internal/dsp ./internal/spectest
go test -race -count=2 -run 'TestTable2ConcurrentStudies' ./internal/experiments

echo "== chaos suite (failpoints, race) =="
# Deterministic fault injection at the registered engine sites
# (mcengine.lane, campaign.sim_batch/detect_batch, soc.schedule,
# resilient.checkpoint.save), with the stuck-at campaign under both
# detectors: injected errors, panics and slow batches must never leak
# goroutines, lose samples, or corrupt the partial accounting.
# -count=2 so a cached result never masks a race.
go test -race -count=2 ./internal/resilient ./internal/campaign

echo "== SOC scheduler property wall (race) =="
# The internal/soc quick.Check suite: every published schedule
# feasible and bounded (LB <= makespan <= serial), worker-count
# invariant, monotone in TAM width, and every placement justified at
# its packing width. -count=2: the width lanes run on the shared
# mcengine pool.
go test -race -count=2 ./internal/soc

echo "== service suite (mstxd scheduler/cache/SSE/supervision, race) =="
# The job service end to end: submit/stream/cancel/cache-hit round
# trips over httptest, failpoint-driven failed/partial classification,
# the single-flight cache under concurrent identical submissions, the
# in-process kill-and-resume crash test, and the supervision layer
# (deadlines, retry-with-backoff, circuit breakers, cancel racing the
# checkpointer). -count=2: the WRR scheduler and SSE pollers are
# scheduling-sensitive. The chaos soak is excluded here — it has its
# own gate below with a replayable seed.
go test -race -count=2 -skip TestChaosSoak ./internal/server
go test -race -count=2 ./cmd/mstxd

echo "== chaos soak (multi-tenant, every failpoint site, race) =="
# The self-healing wall: four tenants drive all four job kinds while
# failpoints fire at every site resilient.Sites lists,
# then a directed breaker open/recover pass. Asserted: no hung jobs,
# correct terminal classification, retried jobs bit-identical to clean
# runs (the E6/E9 goldens for the mc/soc specs), per-kind /readyz
# degradation, and zero goroutine leaks. The fault schedule is seeded;
# a failure replays locally with the printed MSTX_SOAK_SEED.
soak_seed=${MSTX_SOAK_SEED:-1}
if MSTX_SOAK_SEED=$soak_seed go test -race -count=1 -run TestChaosSoak ./internal/server; then
    soak_status=PASS
else
    soak_status=FAIL
    echo "chaos soak FAILED — replay with MSTX_SOAK_SEED=$soak_seed scripts/check.sh" >&2
    exit 1
fi

echo "== kill-and-resume smoke (E6 -checkpoint, SIGKILL, -resume, diff) =="
# A checkpointed quick E6 run is SIGKILLed mid-flight, resumed from its
# snapshot directory, and the resumed table must be byte-identical to
# an uninterrupted baseline. Whatever instant the kill lands (before
# the first snapshot, mid-run, or after completion), bit-identity must
# hold — that is the checkpoint/resume contract.
go build -o "$tmp/experiments" ./cmd/experiments
"$tmp/experiments" -table2 -quick -workers 1 >"$tmp/base.txt" 2>/dev/null
"$tmp/experiments" -table2 -quick -workers 1 \
    -checkpoint "$tmp/ckpt" -checkpoint-every 1 >"$tmp/killed.txt" 2>/dev/null &
smoke_pid=$!
sleep 0.2
kill -KILL "$smoke_pid" 2>/dev/null || true
wait "$smoke_pid" 2>/dev/null || true
"$tmp/experiments" -table2 -quick -workers 1 \
    -checkpoint "$tmp/ckpt" -resume >"$tmp/resumed.txt" 2>/dev/null
diff "$tmp/base.txt" "$tmp/resumed.txt"

echo "== golden diff (E6 Table 2, E9 SOC schedule) =="
# Byte-for-byte against the checked-in goldens; regenerate
# deliberately with:
#   go test ./internal/experiments -run Table2Golden -update
#   go test ./internal/experiments -run E9ScheduleGolden -update
go test -count=1 ./internal/experiments -run 'Table2Golden|E9ScheduleGolden'

echo "== mstxd smoke (serve, submit E6 job, diff against CLI) =="
# Boot the real service binary, submit the quick E6 study as an "mc"
# job through the client mode, and the result text the service streams
# back must be byte-identical to what the experiments CLI prints for
# the same configuration — the service is a scheduler around the same
# engines, never a different code path. The resubmission must then be
# served from the content-addressed cache (client reports it on
# stderr) with the identical bytes.
go build -o "$tmp/mstxd" ./cmd/mstxd
"$tmp/mstxd" -addr 127.0.0.1:0 -addr-file "$tmp/mstxd.addr" -workers 1 \
    2>"$tmp/mstxd.log" &
mstxd_pid=$!
for _ in 1 2 3 4 5 6 7 8 9 10; do
    [ -s "$tmp/mstxd.addr" ] && break
    sleep 0.2
done
[ -s "$tmp/mstxd.addr" ] || { cat "$tmp/mstxd.log" >&2; exit 1; }
addr=$(cat "$tmp/mstxd.addr")
"$tmp/mstxd" -connect "$addr" -tenant smoke -wait \
    -submit '{"kind":"mc","devices":6}' >"$tmp/mstxd_table2.txt"
"$tmp/experiments" -table2 -quick >"$tmp/cli_table2.txt" 2>/dev/null
diff "$tmp/mstxd_table2.txt" "$tmp/cli_table2.txt"
"$tmp/mstxd" -connect "$addr" -tenant smoke -wait \
    -submit '{"kind":"mc","devices":6}' >"$tmp/mstxd_cached.txt" 2>"$tmp/resub.log"
grep -q 'served from cache' "$tmp/resub.log"
diff "$tmp/mstxd_table2.txt" "$tmp/mstxd_cached.txt"

echo "== mstxd smoke (submit E9 soc job, diff against CLI) =="
# Same contract for the soc kind: the schedule sweep the service
# returns must be byte-identical to `experiments -e9` at the same
# configuration (-quick sweeps widths 4/8/16 at 16 iterations), and
# the resubmission must be a cache hit with identical bytes.
"$tmp/mstxd" -connect "$addr" -tenant smoke -wait \
    -submit '{"kind":"soc","tam_widths":[4,8,16],"iterations":16}' >"$tmp/mstxd_e9.txt"
"$tmp/experiments" -e9 -quick >"$tmp/cli_e9.txt" 2>/dev/null
diff "$tmp/mstxd_e9.txt" "$tmp/cli_e9.txt"
"$tmp/mstxd" -connect "$addr" -tenant smoke -wait \
    -submit '{"kind":"soc","tam_widths":[4,8,16],"iterations":16}' \
    >"$tmp/mstxd_e9_cached.txt" 2>"$tmp/resub_e9.log"
grep -q 'served from cache' "$tmp/resub_e9.log"
diff "$tmp/mstxd_e9.txt" "$tmp/mstxd_e9_cached.txt"
kill -TERM "$mstxd_pid" 2>/dev/null || true
wait "$mstxd_pid" 2>/dev/null || true

echo "== bench smoke (MC losses pair) =="
go test -run '^$' -bench 'BenchmarkMCLosses' -benchtime 3x .

echo "== bench smoke (obs off/on pairs) =="
# The Off legs must track the uninstrumented baselines above within
# noise — the nil-registry fast path is a hard contract (DESIGN.md §8).
go test -run '^$' -bench 'BenchmarkCampaignObs|BenchmarkMCObs' -benchtime 3x .

echo "== bench record + regression gate (dsp spectrum benchmarks) =="
# Run the dsp benchmarks — the allocating/scratch PowerSpectrum pair,
# AnalyzeAllocating4096, FFTPlanned4096 and RecordScratchSpectrum1024 —
# and append the numbers to the BENCH_*.json perf trajectories.
# -compare first gates the run against the last entry recorded in the
# same environment (goos, goarch, cpu, GOMAXPROCS; with none, it
# refuses): any allocs/op growth fails, and so does ns/op drift beyond
# -max-ns-regress (25% here — the tool default is 15%, but shared CI
# machines need the extra noise headroom; the allocs/op gate is exact
# either way). The commit SHA and timestamp are passed in so the
# recorder itself reads no clock. Every gated step runs -count 5 and
# benchrecord gates on the median of the five samples (recording their
# min/max spread), so one noisy sample on a shared host neither fails
# nor passes a gate; the bounds are unchanged. On a regression the
# gate prints the offending benchmarks and leaves the trajectory
# untouched; fix the code or deliberately re-baseline by deleting the
# last entry.
sha=$(git rev-parse --short HEAD)
now=$(date -u +%Y-%m-%dT%H:%M:%SZ)
go test -run '^$' -bench 'Allocating|Scratch|FFTPlanned4096$' -benchmem -benchtime 500ms -count 5 \
    ./internal/dsp >"$tmp/bench_dsp.txt"
go run ./cmd/benchrecord -out BENCH_dsp.json -sha "$sha" -date "$now" \
    -compare -max-ns-regress 25 <"$tmp/bench_dsp.txt"

echo "== bench record + regression gate (spectral campaign and its layers) =="
# The pooled campaign vs its seed path, plus the layers under it:
# record generation alone (BenchmarkRecordsFromBaseline: every fault
# of the E8 universe propagated over one baseline view), the
# parallel-pattern good pass that captures that view
# (BenchmarkCaptureBaseline), the campaign job's prepare
# (BenchmarkBuildDigitalTest), one full-netlist step of the 13-tap
# filter, and the compiled simulator on an XOR tree.
go test -run '^$' -bench 'BenchmarkSpectralCampaign|BenchmarkRecordsFromBaseline|BenchmarkCaptureBaseline|BenchmarkBuildDigitalTest' \
    -benchmem -benchtime 3x -count 5 . >"$tmp/bench_campaign.txt"
go test -run '^$' -bench 'BenchmarkFIRSimStep13Tap$' -benchmem -benchtime 1s -count 5 \
    ./internal/digital >>"$tmp/bench_campaign.txt"
go test -run '^$' -bench 'BenchmarkSimulatorXorTree$' -benchmem -benchtime 1s -count 5 \
    ./internal/netlist >>"$tmp/bench_campaign.txt"
go run ./cmd/benchrecord -out BENCH_campaign.json -sha "$sha" -date "$now" \
    -compare -max-ns-regress 25 <"$tmp/bench_campaign.txt"

echo "== bench record + regression gate (SOC scheduler pair) =="
# The E9 rectangle packer at W=32, parallel lanes vs -workers 1; the
# trajectory keeps the scheduler's cost visible as the SOC model and
# the local search grow.
go test -run '^$' -bench 'BenchmarkSOCSchedule' -benchmem -benchtime 3x -count 5 \
    . >"$tmp/bench_soc.txt"
go run ./cmd/benchrecord -out BENCH_soc.json -sha "$sha" -date "$now" \
    -compare -max-ns-regress 25 <"$tmp/bench_soc.txt"

echo "== bench record + regression gate (E6 device-lane simulation) =="
# The E6 study's hot path, recorded to BENCH_e6.json: BenchmarkTable2
# (the whole study at bench size), BenchmarkTable2Service (the study at
# the service's mc default: 15 devices, 2048-sample captures; after
# warm-up it reads warm process-wide carrier tables, as the service
# does after its first mc job),
# BenchmarkPathCapture (one warmed P1dB sweep capture on reused carrier
# tables and buffers — zero allocs) and BenchmarkReferralMC1M (one cold translate job's 1M-draw
# referral Monte Carlo, allocation-free per draw). The engine runs on
# a goroutine pool, so the Table2 and referral alloc counts move by
# about 1% with goroutine reuse; this gate takes 2% alloc slack,
# which still leaves the zero-alloc PathCapture count exact and catches
# any per-draw or per-capture allocation.
go test -run '^$' -bench 'BenchmarkTable2$|BenchmarkTable2Service$|BenchmarkReferralMC1M' -benchmem -benchtime 1s -count 5 \
    . >"$tmp/bench_e6.txt"
go test -run '^$' -bench 'BenchmarkPathCapture' -benchmem -benchtime 1s -count 5 \
    ./internal/params >>"$tmp/bench_e6.txt"
go run ./cmd/benchrecord -out BENCH_e6.json -sha "$sha" -date "$now" \
    -compare -max-ns-regress 25 -max-allocs-regress 2 <"$tmp/bench_e6.txt"

echo "== bench record + regression gate (engine pairs) =="
# The layer pairs of the two executor-driven engines, recorded to
# BENCH_engines.json: the campaign engine grading one 63-fault batch by
# exact compare (BenchmarkFaultSimParallel vs the one-fault-at-a-time
# fault.SerialSimulate reference)
# and the MC loss estimator (BenchmarkMCLossesEngine vs its plain-loop
# Serial reference). Both parallel legs run on mcengine.Execute's
# goroutine pool, so their alloc counts move with goroutine reuse like
# the E6 set's; this gate takes the E6 step's slack.
go test -run '^$' -bench 'BenchmarkFaultSim(Parallel|Serial)$|BenchmarkMCLosses(Engine|Serial)$' \
    -benchmem -benchtime 1s -count 5 . >"$tmp/bench_engines.txt"
go run ./cmd/benchrecord -out BENCH_engines.json -sha "$sha" -date "$now" \
    -compare -max-ns-regress 25 -max-allocs-regress 2 <"$tmp/bench_engines.txt"

echo "== bench record + regression gate (mstxvet catalog) =="
# The vet-runtime budget: the full analyzer catalog over two real
# packages, cold (BenchmarkMstxvet: the stdlib type-checked from
# source again each iteration, as one CLI run does) and warm
# (BenchmarkMstxvetWarm: the process-wide stdlib already checked).
# check.sh runs the catalog on every merge, so its cost must stay
# visible in a trajectory like the engine benchmarks. 50% ns headroom:
# loading and type-checking dominate and are noisier than the
# compute-bound pairs. The
# allocs/op count jitters by a handful in millions (go/types interns
# as it goes), so this gate alone takes 1% alloc slack instead of the
# exact default.
go test -run '^$' -bench 'BenchmarkMstxvet(Warm)?$' -benchmem -benchtime 3x -count 5 \
    ./internal/analysis >"$tmp/bench_mstxvet.txt"
go run ./cmd/benchrecord -out BENCH_mstxvet.json -sha "$sha" -date "$now" \
    -compare -max-ns-regress 50 -max-allocs-regress 1 <"$tmp/bench_mstxvet.txt"

echo "== fuzz smoke (netlist parser, job spec, job ledger, engine checkpoints) =="
# Ten seconds of coverage-guided fuzzing each on top of the checked-in
# seed corpora: the netlist text reader (any panic or round-trip
# violation fails), the service's job-spec decoder (decode plus
# normalize never panics, every accepted spec is within the caps, and
# normalizing it again keeps its identity), and resume over arbitrary
# CRC-valid job ledgers (never panics, fails only with a LedgerError,
# restores unique IDs that a new Submit never reuses, and serves a
# result for every restored done or partial job), and engine resume
# from arbitrary CRC-valid snapshot payloads (the MC merged prefix,
# the SOC width lanes and the stuck-at campaign: never panics, fails
# only with a CheckpointError, and a resume that finishes is well
# formed). The campaign snapshots run to tens of KB, and minimizing a
# new interesting input that size takes up to the default 60 s, so
# that smoke bounds minimization to 1 s.
go test -fuzz=FuzzParseNetlist -fuzztime=10s ./internal/netlist
go test -run '^$' -fuzz=FuzzSubmitSpec -fuzztime=10s ./internal/server
go test -run '^$' -fuzz=FuzzLedgerRestore -fuzztime=10s ./internal/server
go test -run '^$' -fuzz=FuzzCheckpointDecode -fuzztime=10s -fuzzminimizetime=1s ./internal/resilient

echo "== check OK (chaos soak: $soak_status, seed $soak_seed) =="
