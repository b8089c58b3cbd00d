# Tier-1 gate: everything `make check` runs must stay green.
#
#   make check   gofmt check + vet (host, plus the kernel packages for arm64 so
#                the !amd64 halves of the assembly kernels compile, plus the
#                wire codec for arm64 and 386) + the wire codec's generated
#                power-of-ten table against its generator + build +
#                full test suite + race detector
#                on the hardened-runtime packages + short campaign, fleet,
#                network-tier, crash/disk-fault and repair-ladder lifetime
#                soak smokes (cmd/monitor -soak NAME) + the quickstart
#                example end to end + a short fuzz pass over
#                the journal record and snapshot decoders, the f32 kernel
#                envelope, the register-tiled f64 matmul's, the fused conv
#                block's and the 2×2 pool kernel's bit-identity, the
#                /v1/infer request decoder and the wire codec's two number
#                kernels against strconv + the unreached-function gate
#                (unreached) + the benchmark gate (bench-gate)
#   make repro-check  the paper reproduction at the default scale, byte for
#                byte against results_all.txt and results_ablations.txt
#                (≈ 30 s warm on 2 vCPUs; trains and caches the two models
#                and their pattern sets first on a fresh checkout, ≈ 3 min
#                more). Not part of check: go test pins the fast part at a
#                tiny scale (internal/experiments/testdata/golden_tiny.txt)
#   make soak-sweep  the campaign, fleet and lifetime soaks over seeds
#                5000–5099 and the crash soak over 20 matrices from seed 5000,
#                stdout, stderr and exit status byte for byte against
#                testdata/soak_sweep.txt (≈ 25 s on 2 vCPUs; a soak's own
#                exit 1 on a failing seed is recorded, only a diff fails). Not
#                part of check
#   make bench-gate  build ./bench, run it -quick over every workload
#                (end-to-end and traced) as the leader of its own process
#                group, and fail if the run fails, any process of the group
#                outlives it, a workload reports "correct":false, or mlp_rpc's
#                allocs_per_req exceeds the committed ceiling
#   make loc     non-test Go line count (what ROADMAP items 1, 8 and 13
#                measure)
#   make unreached  list every internal/ function no binary links and fail
#                on one that scripts/unreached.allow does not name, or on an
#                allowlist entry that is linked or no longer defined
#   make unrun   list every internal/ statement that neither go test nor the
#                runs of check and repro-check execute (binaries built with
#                -cover), by function, and fail on a function that
#                scripts/unrun.allow does not name, on a count above its
#                entry, on a stale entry, or on a failed build or run (≈ 2 min
#                warm; not part of check, it reruns go test and the
#                reproduction)
#   make ab-engine REV=<rev>  A/B the f64 engine row (BenchmarkEngineRow)
#                between <rev> and the working tree: adjacent runs of two
#                prebuilt test binaries, pairwise ratios and median
#                (PAIRS=8, BENCHTIME=0.5s by default)
#   make race    race detector over the whole tree (slow: retrains models
#                under the race runtime)
#   make soak    the full 20-campaign acceptance soak with scorecard
#   make fleet-soak  the full fleet crash/restart acceptance soak
#   make lifetime-soak  the full 9-seed repair-ladder lifetime soak
#   make net-soak  the full network-tier chaos soak (4 × 250k-request
#                campaigns = the million-request gate)
#   make crash-soak  the full durable-state torture matrix (8 seeded
#                matrices of crash-point × disk-fault cells)

GO ?= go

# The packages with concurrency-sensitive or newly hardened logic; raced on
# every check. `make race` covers the rest.
RACE_PKGS = ./internal/health/... ./internal/campaign/... ./internal/monitor/... \
            ./internal/stats/... ./internal/repair/... \
            ./internal/fleet/... ./internal/journal/... ./internal/engine/... \
            ./internal/tensor/... ./internal/serve/... ./internal/tengine/... \
            ./internal/netserve/... ./internal/loadgen/... \
            ./internal/reram/... ./internal/hwcost/... ./internal/wire/... \
            ./internal/nn/... ./internal/models/...

.PHONY: check fmt-check vet gen-check build test race-fast race soak-smoke soak \
        fleet-soak-smoke fleet-soak \
        net-soak-smoke net-soak crash-soak-smoke crash-soak \
        lifetime-soak-smoke lifetime-soak examples-smoke fuzz-short \
        bench-gate repro-check soak-sweep loc unreached unrun ab-engine

check: fmt-check vet gen-check build unreached test race-fast soak-smoke fleet-soak-smoke net-soak-smoke crash-soak-smoke lifetime-soak-smoke examples-smoke fuzz-short bench-gate
	@echo "check: PASS"

# gofmt prints the files it would rewrite; any name is a failure
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# the second pass type-checks what only a non-amd64 build compiles: the
# portable twins of the SSE2/AVX2/AVX-512 kernels (matmul_noasm.go, which
# also sends the 2×2 pool to its Go twin, and matmul32_noasm.go);
# the third holds the wire codec's number kernels to a 32-bit int
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor/ ./internal/nn/ ./internal/engine/ ./internal/wire/
	GOARCH=386 $(GO) vet ./internal/wire/

# the committed power-of-ten table is what its generator writes (math/big
# only; `go generate ./internal/wire` is the command that rewrites it)
gen-check:
	@tmp="$$(mktemp)"; $(GO) run ./internal/wire/pow10gen -o "$$tmp" && diff "$$tmp" internal/wire/pow10tab.go; rc=$$?; rm -f "$$tmp"; exit $$rc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race-fast:
	$(GO) test -race $(RACE_PKGS)

# internal/experiments retrains models and renders every figure; under the
# race runtime that exceeds go test's default 10m binary timeout
race:
	$(GO) test -race -timeout 45m ./...

# short-budget smoke: fewer campaigns than the acceptance gate, same scoring
soak-smoke:
	$(GO) run ./cmd/monitor -soak campaign -campaigns 6

soak:
	$(GO) run ./cmd/monitor -soak campaign -campaigns 20

# fleet crash/restart soak: each campaign is run crashed AND uninterrupted
# from the same seed; the gate demands zero state divergence after replay
fleet-soak-smoke:
	$(GO) run ./cmd/monitor -soak fleet -campaigns 3

fleet-soak:
	$(GO) run ./cmd/monitor -soak fleet -campaigns 10

# repair-ladder lifetime soak: each seed runs three arms — the scrub →
# remap → retrain escalation ladder, a retrain-only control in the same
# cost units, and the ladder crash-replayed from its journal — gated on
# the ladder beating the control on budget spend and retirements at an
# equal-or-better fidelity floor, zero untyped strategy errors, and exact
# crash/restart parity on journaled strategy decisions
lifetime-soak-smoke:
	$(GO) run ./cmd/monitor -soak lifetime -seed 5 -campaigns 3

lifetime-soak:
	$(GO) run ./cmd/monitor -soak lifetime -seed 3 -campaigns 9

# the examples are callers with no test of their own; quickstart trains a
# small model, derives O-TP patterns and scores injected programming errors
# in ≈3 s, and its exit status is checked (the soak smokes cover the typed
# repair errors and the journal replay the deleted examples printed)
examples-smoke:
	$(GO) run ./examples/quickstart

# every table, figure and ablation cmd/experiment prints, diffed against the
# committed reproduction; the weights and patterns cached under testdata/ are
# read, and written only where missing
repro-check:
	@tmp="$$(mktemp -d)"; \
	$(GO) run ./cmd/experiment -id all > "$$tmp/all.txt" && diff results_all.txt "$$tmp/all.txt" && \
	$(GO) run ./cmd/experiment -id ablations > "$$tmp/ablations.txt" && diff results_ablations.txt "$$tmp/ablations.txt"; \
	rc=$$?; rm -rf "$$tmp"; [ $$rc -eq 0 ] && echo "repro-check: PASS"; exit $$rc

# the deterministic soaks over a block of seeds not used in development,
# diffed against the committed record; `sh scripts/soak-sweep.sh >
# testdata/soak_sweep.txt` rewrites it when a verdict moves on purpose
soak-sweep:
	@tmp="$$(mktemp)"; GO=$(GO) sh scripts/soak-sweep.sh > "$$tmp" && diff testdata/soak_sweep.txt "$$tmp"; \
	rc=$$?; rm -f "$$tmp"; [ $$rc -eq 0 ] && echo "soak-sweep: PASS"; exit $$rc

# non-test Go lines, the number ROADMAP items 1, 8 and 13 measure
loc:
	@find . -name '*.go' ! -name '*_test.go' | xargs wc -l | tail -1

# one quick run of every workload must end whole, correct, and with
# mlp_rpc's allocs_per_req no higher than the count this tree reaches + 2
bench-gate:
	@GO=$(GO) sh scripts/bench-gate.sh

# every internal/ function no binary links is allowlisted with a reason
unreached:
	@GO=$(GO) sh scripts/unreached.sh

# every internal/ statement no test and no binary run executes is
# allowlisted by function, with its count and a reason
unrun:
	@GO=$(GO) sh scripts/unrun.sh

# kernel A/B: REV is required (e.g. REV=HEAD for uncommitted work)
PAIRS ?= 8
BENCHTIME ?= 0.5s
ab-engine:
	@test -n "$(REV)" || { echo "usage: make ab-engine REV=<rev> [PAIRS=8] [BENCHTIME=0.5s]"; exit 2; }
	sh scripts/ab-engine.sh $(REV) $(PAIRS) $(BENCHTIME)

# network-tier chaos soak: seeded multi-tenant HTTP campaigns against the
# sharded serving tier over a live loopback listener, with device chaos
# (slow readouts, mid-request crashes, deadline storms, concurrent
# monitoring ticks) and a mid-campaign graceful shard drain; gated on zero
# hung calls, exact typed accounting (admitted == terminal, at the tier and
# in every shard's serve.Server), post-drain liveness, bounded p99 vs a
# same-seed baseline, and zero leaked goroutines. The full gate runs
# million-request campaigns; the smoke keeps CI fast.
net-soak-smoke:
	$(GO) run ./cmd/monitor -soak net -campaigns 2

net-soak:
	$(GO) run ./cmd/monitor -soak net -campaigns 4 -net-requests 250000

# durable-state torture matrix: every (crash point × disk fault) cell runs a
# seeded fleet campaign over the snapshot-compacting journal store, kills it,
# injects the fault (torn tails, torn renames, corrupt snapshots, ENOSPC,
# failed fsyncs, crash-at-byte tears), recovers, and gates on bit-identical
# state, bounded WAL size and zero acknowledged-then-lost writes
crash-soak-smoke:
	$(GO) run ./cmd/monitor -soak crash -campaigns 2 -devices 2

crash-soak:
	$(GO) run ./cmd/monitor -soak crash -campaigns 8 -devices 3

# short coverage-guided pass over the journal record decoder, the snapshot
# decoder, the f32-vs-f64 envelope of the two matmul kernels under the
# engine's F32 plan, the register-tiled f64 matmul (every tile the host
# runs, and the Go fold) against the reference loop's bits, the convolution
# read straight from its zero-bordered input (bare, or as the fused
# conv → ReLU → max-pool block; rows on both sides of every tile's width and
# half-width; strided through its im2col panel) against the layers' unfused
# im2col reference chain, the SSE2 2×2 pool
# kernel and its Go twin against the bounds-tested window sweep, the /v1/infer handler and the wire codec's
# number scanner and shortest-digits renderer against strconv (committed
# corpora seed all nine; go's fuzzer takes one target per invocation)
fuzz-short:
	$(GO) test ./internal/journal -run='^$$' -fuzz=FuzzDecodeAll -fuzztime=10s
	$(GO) test ./internal/journal -run='^$$' -fuzz=FuzzDecodeSnapshot -fuzztime=10s
	$(GO) test ./internal/tensor -run='^$$' -fuzz=FuzzMatMulF32VsF64 -fuzztime=10s
	$(GO) test ./internal/tensor -run='^$$' -fuzz=FuzzMatMulBlockedVsRef -fuzztime=10s
	$(GO) test ./internal/nn -run='^$$' -fuzz=FuzzConvBlockVsChain -fuzztime=10s
	$(GO) test ./internal/nn -run='^$$' -fuzz=FuzzReLUMaxPool2x2 -fuzztime=10s
	$(GO) test ./internal/netserve -run='^$$' -fuzz=FuzzInferRequest -fuzztime=10s
	$(GO) test ./internal/wire -run='^$$' -fuzz=FuzzNumberVsStrconv -fuzztime=10s
	$(GO) test ./internal/wire -run='^$$' -fuzz=FuzzAppendFloatVsStrconv -fuzztime=10s
