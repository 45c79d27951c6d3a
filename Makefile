# Reproduction entry points. Everything is plain `go` underneath; these
# targets just name the workflows.

GO ?= go

.PHONY: all build lint doccheck mdcheck trace-check test test-race cover bench-micro bench-harness-test sweep sweep-quick repro-check figures fuzz chaos soak stream-soak sybilwar clean

all: build lint test

build:
	$(GO) build ./...
	$(GO) vet ./...

# Determinism & concurrency linter plus the documentation checkers;
# see docs/LINTING.md. The full-registry run also fails on any
# //lint:ignore directive that no longer suppresses anything, so it
# goes with the code it excused.
lint:
	$(GO) run ./cmd/dhtlint ./...
	$(GO) run ./cmd/mdcheck

# Just the godoc rule, for quick iteration while writing docs.
doccheck:
	$(GO) run ./cmd/dhtlint -rules doccomment ./...

# Just the Markdown link/anchor checker (also part of `make lint`).
mdcheck:
	$(GO) run ./cmd/mdcheck

# Trace determinism audit (docs/OBSERVABILITY.md): two fresh runs at one
# seed must produce byte-identical JSONL traces, and dhttrace must agree.
trace-check:
	@rm -rf /tmp/chordbalance-trace-check && mkdir -p /tmp/chordbalance-trace-check
	$(GO) run ./cmd/dhtsim -nodes 500 -tasks 50000 -strategy random -churn 0.02 \
	  -seed 7 -trace /tmp/chordbalance-trace-check/a.jsonl > /dev/null
	$(GO) run ./cmd/dhtsim -nodes 500 -tasks 50000 -strategy random -churn 0.02 \
	  -seed 7 -trace /tmp/chordbalance-trace-check/b.jsonl > /dev/null
	cmp /tmp/chordbalance-trace-check/a.jsonl /tmp/chordbalance-trace-check/b.jsonl
	$(GO) run ./cmd/dhttrace diff /tmp/chordbalance-trace-check/a.jsonl /tmp/chordbalance-trace-check/b.jsonl

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./internal/...

# The repository benchmark's own tests (benchmarks/README.md): arithmetic,
# golden canary digests for both simulator workloads, and a -short smoke
# of all four workloads. benchmarks/ is a nested module, so the root
# `go test ./...` does not reach them.
bench-harness-test:
	cd benchmarks && $(GO) test -short ./...

# Go micro-benchmarks of the per-package hot paths (IDs, RNG, ring, tick
# engine, store digest); the paper's tables and figures are
# regenerated by `make sweep-quick` and `make figures`. -run '^$' skips
# the unit tests, which `make test` covers.
bench-micro:
	$(GO) test -run '^$$' -bench=. -benchmem ./...

# Publication-strength sweep of every experiment (slow; the paper used
# 100 trials per cell).
sweep:
	$(GO) run ./cmd/dhtsweep -exp all -trials 100

# Quick sweep matching sweep_results.txt.
sweep-quick:
	$(GO) run ./cmd/dhtsweep -exp all -trials 5 -seed 1

# Reproduction referee: rerun the quick sweep and fail on any byte of
# drift from the committed sweep_results.txt, then regenerate every
# figure and fail on any byte of drift from the committed SVGs. The
# per-experiment timing lines go to stderr, so stdout is a pure function
# of the flags.
repro-check:
	$(GO) run ./cmd/dhtsweep -exp all -trials 5 -seed 1 | diff -u sweep_results.txt -
	$(MAKE) figures
	git diff --exit-code figures/

# Regenerate every figure as SVG into ./figures/.
figures:
	$(GO) run ./cmd/dhtfig -all figures
	$(GO) run ./cmd/ringviz -mode sha1 -svg figures/figure02.svg
	$(GO) run ./cmd/ringviz -mode even -svg figures/figure03.svg

# Exercise the fuzz targets beyond their seed corpora.
fuzz:
	$(GO) test -fuzz=FuzzOperationSequences -fuzztime=30s ./internal/ring/
	$(GO) test -fuzz=FuzzBuiltRingModel -fuzztime=30s ./internal/ring/
	$(GO) test -fuzz=FuzzArithmeticLaws -fuzztime=30s ./internal/ids/
	$(GO) test -fuzz=FuzzCompare -fuzztime=30s ./internal/ids/
	$(GO) test -fuzz=FuzzKeyHash -fuzztime=30s ./internal/keys/
	$(GO) test -fuzz=FuzzFaultPlan -fuzztime=30s ./internal/sim/
	$(GO) test -fuzz=FuzzWireRoundTrip -fuzztime=30s ./internal/wire/
	$(GO) test -fuzz=FuzzConnStream -fuzztime=30s ./internal/wire/
	$(GO) test -fuzz=FuzzStoreRecord -fuzztime=30s ./internal/store/
	$(GO) test -fuzz=FuzzLogScan -fuzztime=30s ./internal/store/
	$(GO) test -fuzz=FuzzDigestModel -fuzztime=30s ./internal/store/

# 60-second loopback soak of the networked runtime (docs/NETWORK.md):
# a 16-host cluster over real TCP sockets under frame loss and a mid-run
# partition. Asserts no goroutine leaks after shutdown and no lost keys
# with Replicas >= 2. Then the stacked-Sybil-join replay on lockstep
# hosts over seeds 1-100, clean and at 2% loss with 1% duplication,
# which must lose no acked chunk (about 3 minutes). Gated behind a
# build tag so `go test ./...` stays fast.
soak:
	$(GO) test -tags soak -run 'TestSoakCluster|TestSoakDurableStore|TestSoakStackedJoinSeeds' -v -timeout 10m ./internal/netchord/

# 30-second streaming soak (docs/STREAMING.md): 32 viewers stream a
# chunked catalog off a 12-host TCP cluster through cached routes while
# frames drop and a mid-run partition heals. Gates on a sane rebuffer
# rate, byte-exact delivery, and zero acked-chunk loss after the heal.
stream-soak:
	$(GO) test -tags soak -run TestSoakStream -v -timeout 10m ./internal/netchord/

# Adversary smoke (docs/ADVERSARY.md): the sybilwar referees under the
# race detector — the hostile-engine golden matrix, the eclipse-vs-defense
# dose ladder, the sweep's serial/parallel identity,
# the full adversary unit suite, and the protocol half on seeded
# lockstep rings (puzzle join gate, eclipse suppression, no eviction
# notice on an honest ring, and the host's eviction response keeping
# its work).
sybilwar:
	$(GO) test -race -run 'Sybilwar|Adversary|Eclipse|Puzzle|Detector|Attacker|Density|FalseEvict' \
	  ./internal/adversary/ ./internal/sim/ ./internal/experiments/
	$(GO) test -race -run 'TestJoinPuzzleGate|TestEclipseSuppressedByDefense|TestHonestRingNotEvicted|TestRetiredSybilKeepsUndeliveredWork' \
	  ./internal/netchord/

# Fault-matrix smoke (docs/FAULTS.md): 3 seeds x {crash bursts, 10%
# message loss, partition+heal} on both the engine and the protocol,
# mirroring the CI job.
chaos:
	@for seed in 1 2 3; do \
	  echo "== seed $$seed: crash bursts =="; \
	  $(GO) run ./cmd/dhtsim -nodes 100 -tasks 10000 -strategy random \
	    -crash-rate 0.002 -crash-burst-every 25 -crash-burst-size 2 -seed $$seed || exit 1; \
	  echo "== seed $$seed: crash bursts, no replication =="; \
	  $(GO) run ./cmd/dhtsim -nodes 100 -tasks 10000 -strategy random \
	    -crash-rate 0.002 -crash-burst-every 25 -crash-burst-size 2 -replicas -1 -seed $$seed || exit 1; \
	  echo "== seed $$seed: partition+heal =="; \
	  $(GO) run ./cmd/dhtsim -nodes 100 -tasks 10000 -strategy random -churn 0.02 \
	    -partition 0.3 -partition-start 10 -partition-heal 60 -seed $$seed || exit 1; \
	  echo "== seed $$seed: protocol chaos (10% loss + crashes) =="; \
	  printf 'create 24\nput k v\nmaint 5\nplan crash=0.01 burst-every=10 burst-size=2 drop=0.1 seed=%s\nchaos 30\nheal\nget k\nquit\n' $$seed \
	    | $(GO) run ./cmd/chordnet || exit 1; \
	done

clean:
	$(GO) clean -testcache
	rm -rf figures
