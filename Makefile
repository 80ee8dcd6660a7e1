# Tier-1 verification (see ROADMAP.md). The pipeline is concurrent
# end-to-end, so vet and the race detector are part of the baseline gate;
# cover enforces the per-package statement-coverage floor.
.PHONY: verify build test race vet benchvet bench bench-smoke cover fuzz-smoke servtest storetest acc acc-baseline

verify: build vet benchvet test race cover acc servtest storetest

build:
	go build ./...

vet:
	go vet ./...

# perfbench is its own module (replace probedis => ../), so the root
# build and vet never compile it; vet it separately so an API change
# cannot break the benchmark unnoticed.
benchvet:
	cd perfbench && go vet ./...

test:
	go test ./...

race:
	go test -race ./...

# Benchmark-regression gate: run the full suite, compare against the
# latest committed BENCH_<date>.json (>15% ns/op regression fails), and
# write today's results as the new baseline.
BENCH_DATE = $(shell date -u +%Y-%m-%d)
bench:
	go test -run='^$$' -bench=. -benchmem . | tee /tmp/bench.out
	go run ./cmd/benchdiff -in /tmp/bench.out -dir . -write BENCH_$(BENCH_DATE).json

# CI smoke variant: single iteration per benchmark, report-only (noisy
# shared runners must not fail the build), baseline never overwritten.
bench-smoke:
	PROBEDIS_ALLOC_REPORT=/tmp/alloc-report.jsonl \
		go test -run='^$$' -bench=. -benchtime=1x -benchmem . | tee /tmp/bench-smoke.out
	go run ./cmd/benchdiff -in /tmp/bench-smoke.out -dir . -report-only

# Accuracy-regression gate: score the core engine on the pinned,
# content-hashed corpus (eval.PinnedManifest) and compare against the
# latest committed ACC_<date>.json. Accuracy is deterministic on a pinned
# corpus, so the tolerance is float noise only — any real drop fails.
ACC_DATE = $(shell date -u +%Y-%m-%d)
acc:
	go run ./cmd/accdiff -dir .

# Re-record the accuracy baseline (after an intentional accuracy change
# or a corpus version bump). Commit the new ACC_<date>.json.
acc-baseline:
	go run ./cmd/accdiff -dir . -report-only -write ACC_$(ACC_DATE).json

# Statement-coverage floor for every internal/ package. Prints the
# per-package report and fails if any package is below $(COVER_MIN)%;
# the ground-truth layers (synth, eval) carry higher floors — the
# corpus generator and scorer must themselves be well-tested for the
# accuracy gate to mean anything.
COVER_MIN = 70
COVER_MIN_SYNTH = 90
COVER_MIN_EVAL = 80
COVER_MIN_STORE = 80
cover:
	@go test -cover ./internal/... | awk '\
		/coverage:/ { \
			pct = ""; \
			for (i = 1; i <= NF; i++) if ($$i == "coverage:") pct = $$(i+1); \
			sub(/%$$/, "", pct); \
			floor = $(COVER_MIN); \
			if ($$2 == "probedis/internal/synth") floor = $(COVER_MIN_SYNTH); \
			if ($$2 == "probedis/internal/eval") floor = $(COVER_MIN_EVAL); \
			if ($$2 == "probedis/internal/store") floor = $(COVER_MIN_STORE); \
			printf "%-32s %6.1f%% (floor %d%%)\n", $$2, pct, floor; \
			if (pct + 0 < floor) { bad = 1; printf "FAIL %s below %d%% floor\n", $$2, floor } \
		} \
		END { exit bad }'

# Short coverage-guided fuzz pass over the whole pipeline (CI smoke).
fuzz-smoke:
	go test -fuzz=FuzzPipeline -fuzztime=30s .

# Chaos/load harness against the real serving stack (internal/serve)
# over a real loopback listener: mixed hostile workloads under -race,
# run twice to catch order-dependent state. PROBEDIS_LEAK_REPORT
# receives a goroutine stack dump if a leak check fails.
servtest:
	PROBEDIS_LEAK_REPORT=/tmp/servtest-leak.txt \
		go test -race -count=2 -timeout=5m ./internal/servtest

# Persistent result store under fault injection (torn writes, truncated
# entries, bit flips, crash-before-rename), run twice under -race to
# catch order-dependent state. PROBEDIS_QUARANTINE_REPORT receives a
# description of quarantined entries if a corruption check fails.
storetest:
	PROBEDIS_QUARANTINE_REPORT=/tmp/store-quarantine.txt \
		go test -race -count=2 -timeout=5m ./internal/store
