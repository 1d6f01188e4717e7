GO ?= go

# The packages whose allocation pins (tests named *Allocs*) hold the request path.
ALLOC_PKGS = ./internal/core ./internal/estimator ./internal/sqlparse ./internal/resilience ./internal/serve

.PHONY: build test vet race check ci serve-smoke fmt fuzz fuzz-serve fuzz-store fuzz-journal soak bench pgo lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# check is the pre-merge gate: static analysis plus the full test suite under
# the race detector. The daemon answers every request on its own goroutine
# over pooled scratch (parser, featurizer, fingerprint) and a cache that
# concurrent identical misses each write, and labeling/training fan out across
# worker pools (internal/parallel, exec.CountManyWorkers — whose workers read
# each column's dictionary together, without a lock — gb/nn Workers), so
# race-cleanliness is a correctness property here, not a nicety.
check: vet race

# ci is the one-shot pipeline entry point; each step's reason sits above it.
# (`make check` runs the suite at default width, `make soak` the wide sweep.)
ci:
	$(GO) vet ./...
	$(GO) build ./...
# The suite under the race detector in -short mode: the crash/chaos sweeps
# (internal/store, internal/resilience/faultinject) collapse to one seed per
# fault point so the pipeline stays fast.
	$(GO) test -race -short ./...
# The request path's allocation pins skip themselves under the race detector,
# which defeats sync.Pool, so they get a run without it: Parse <= 25 and
# <= 4 KiB, a parse into a warm arena 0, Bind of a numeric query 0, featurize 0, fingerprint <= 2,
# Local.Estimate <= 6, an inline resilience stage 0, keying and looking up a
# query text 0, the whole handler on a hit <= 6, or <= 8 with a Feedback hook
# (it is handed the query the entry kept from its miss: neither hit parses),
# and on a miss that evicts <= 3 (the query is parsed into the request's
# arena; no deadline context, no timer, no list node, no pool closure), and a
# 64-query doBatch <= 8 at one P and at two (the fan-out: a cost per batch).
	$(GO) test -short -run 'Allocs' $(ALLOC_PKGS)
# The daemon ships built with cmd/cardestd/default.pgo, and the inlining the
# profile buys changes escape analysis; go test builds these packages without
# it (-pgo=auto reads only a main package's profile), so the pins run again
# under the daemon's profile: they hold for the build that ships.
	$(GO) test -short -pgo=$(CURDIR)/cmd/cardestd/default.pgo -run 'Allocs' $(ALLOC_PKGS)
# So does the serving-heap pin: a booted daemon holds its columns' statistics + model (+ canary) + <= 96 KiB,
# -journal or not. It holds no row: one that kept its table reads +0.24 MiB and fails, and a GB model is its
# flat forest alone; one that also kept the arenas it was fit in reads +0.33 MiB and fails.
	$(GO) test -short -run 'ServingHeap' ./cmd/cardestd
# Eight fuzz targets, 5 s each: the parser, the journal reader and the
# journal's record encoder against encoding/json ...
	$(GO) test -fuzz=FuzzParse -fuzztime=5s ./internal/sqlparse
	$(GO) test -fuzz=FuzzJournalRead -fuzztime=5s ./internal/journal
	$(GO) test -fuzz=FuzzRecordEncoding -fuzztime=5s ./internal/journal
# ... /v1/estimate through the handler ("4xx never 5xx") and its wire codec
# against encoding/json ...
	$(GO) test -fuzz=FuzzEstimateHandler -fuzztime=5s ./internal/serve
	$(GO) test -fuzz=FuzzEstimateCodec -fuzztime=5s ./internal/serve
# ... and the executor's dictionary evaluator against the scan kernels it
# replaced, on whatever selection the parser makes of the input.
	$(GO) test -fuzz=FuzzEvalExpr -fuzztime=5s ./internal/exec
# ... and the snapshot loader, which store recovery and hot-load run on
# whatever bytes they find, seeded with a format-1 (per-tree) and a format-2
# (packed forest) snapshot and a format-2 document of model type NN: it loads
# a working GB estimator or errors, never panics.
	$(GO) test -fuzz=FuzzLoadEstimator -fuzztime=5s ./internal/estimator
# ... and the partitioned featurizers on whatever WHERE the parser makes of
# the input, over a uniform, a weighted, a one-value, two int64-extreme and a
# boundary-partitioned attribute: Algorithms 1 and 2 in interval form must
# give the replaced per-term-vector body's vector and selectivity bits, or
# its error text, under both the conjunctive and the complex QFT.
	$(GO) test -fuzz=FuzzFeaturize -fuzztime=5s ./internal/core
# The in-package benchmarks that are the only home of a measurement, one
# iteration each, because a benchmark nothing executes stops compiling or
# stops measuring what its comment says: gb training (labels its own training
# sets, reports the share of the matrix split search accumulates; TrainHistogram
# is the dense input that histograms by subtraction must not slow down), the
# journal's batched-vs-per-record fsync, labeling across workers
# and the boot's label phase over a built table (it reports the tables'
# construction ANALYZE as analyze-ms), and a cache miss's parse and
# featurization alone, on the benchmark's mixed traffic (the per-layer
# numbers of the cold path: sqlparse.parse_us and core.featurize_us).
	$(GO) test -run '^$$' -bench 'TrainQFT|TrainHistogram|TrainWorkers|AppendDurable|CountManyWorkers|LabelBoot|FeaturizeMixed|ParseMixed' -benchtime 1x ./internal/ml/gb ./internal/journal ./internal/exec ./internal/core ./internal/sqlparse
# The generator make pgo profiles, 0.5 s per workload instead of 7.5: it
# fails if any answer is not a 200 from the learned stage, a cold workload
# hits the cache, a warmed one misses it, or a feedback answer never
# reaches the journal.
	$(GO) test -short -run '^$$' -bench '^BenchmarkServeProfile$$' -benchtime 1x ./cmd/cardestd
# The tree's shape is TestTreeShape (shape_test.go), run by the suite above:
# each production package's exported surface (api/<pkg>.txt), the qfe/
# packages each binary links (api/deps.txt), each binary's flags
# (api/flags.txt) and the line budgets (DESIGN §10). A retired export, package
# or flag cannot come back without a diff under api/. The guards below hold
# what a surface does not show: call sites, imports and unexported names.
# Guard 3, one evaluator: the scan kernels live on only as exec's oracle.
	! grep -rnwE 'eqWord|ltWord|leWord' --include='*.go' . | grep -v '_test\.go:'
# Guard 4, the estimate cache is keyed on the query text, not the fingerprint.
	! grep -rn 'core\.Fingerprint' --include='*.go' internal/serve | grep -v _test.go
# Guard 5, the journal's writer is woken per batch, not per record.
	! grep -rn 'chan Record' --include='*.go' internal/journal | grep -v _test.go
# Guard 7, gb accumulates the smaller child and subtracts for its sibling.
	! grep -rnE 'func \(b \*builder\) (rangeSplits|cellSplits)' --include='*.go' internal/ml/gb | grep -v '_test\.go:'
# Guard 8, the journal writes what was served, framed by hand: the daemon
# computes no class key (replay computes it where it reads a record), and the
# journal links neither the fingerprint nor the parser.
	! grep -n 'core\.Fingerprint(' cmd/cardestd/main.go
	! grep -rn 'json\.Marshal(' --include='*.go' internal/journal | grep -v _test.go
	! grep -nE '"qfe/internal/(core|sqlparse)"' internal/journal/*.go | grep -v '_test\.go:'
# Guard 9, a GB model is its flat forest: nothing compiles a model's trees.
	! grep -rn 'compileForest(m\.' --include='*.go' internal/ml/gb | grep -v '_test\.go:'
# Guard 10, a miss arms no timer (and allocates no list node: the miss pin).
	! grep -nE 'context\.With(Deadline|Timeout)' internal/serve/serve.go internal/serve/estimate.go internal/serve/cache.go internal/resilience/resilience.go
# Guard 11, one serving chain: no serving package builds Bernoulli sampling.
	! grep -rnE 'NewSampling|Sampling\{' --include='*.go' cmd/cardestd cmd/cardest internal/cli internal/serve internal/resilience | grep -v '_test\.go:'
# Guard 13, every model reaches the registry through the lifecycle.
	! grep -nE 'Lifecycle == nil|lc == nil' internal/serve/serve.go cmd/cardestd/boot.go
# Guard 14, the daemon retrains nothing: no relabel phase.
	! grep -rnw 'phaseLabel' --include='*.go' . | grep -v '_test\.go:'
# Guard 15, the journal reads time only through internal/clock.
	! grep -nE 'time\.(Now|Since|NewTimer|After)\(' internal/journal/*.go | grep -v '_test\.go:'
# Guard 16, snapshot bytes are the only way in: one decode, in the lifecycle.
	! grep -rn 'LoadEstimator(' --include='*.go' internal/serve cmd/cardestd | grep -vE '_test\.go:|^internal/serve/lifecycle\.go:'
	! grep -rn 'LoadEstimator(' --include='*.go' cmd/cardestd
	test "$$(grep -c 'LoadEstimator(' internal/serve/lifecycle.go)" = 1
# Guard 17, a model is judged at its door, against an incumbent scored there.
	! grep -rnw 'coalesced' --include='*.go' internal cmd | grep -v '_test\.go:'
	! $(GO) doc -u qfe/internal/serve.liveModel | grep -E '^\s+baseline\s'
# Guard 18, a miss is computed by the request that missed, on its goroutine.
	! grep -rnE 'flights|cacheCollapsed|func \(c \*estCache\) do\(' --include='*.go' internal/serve | grep -v '_test\.go:'
	! grep -n 'go func' internal/resilience/resilience.go
# Guard 19, Independence reads the table's statistics and keeps none.
	! grep -nE 'sync\.|statsFor|Buckets|\.Vals' internal/estimator/independence.go
# Guard 20, the daemon serves without rows.
	grep -q 'DB\.DropRows()' cmd/cardestd/boot.go
	! grep -rn '\.Vals\b' --include='*.go' internal/serve internal/resilience cmd/cardestd | grep -v '_test\.go:'
# Guard 21, one ANALYZE, at construction: no lazy path, no lock in the table.
	! grep -rnE 'statsMu|statsValid|ensureStats' --include='*.go' internal cmd examples | grep -v '_test\.go:'
	! grep -nw --exclude='*_test.go' 'sync' internal/table/*.go
# Guard 22, Algorithms 1 and 2 on partition intervals: no per-term vector or arena.
	! grep -nE 'func \(sc \*scratch\) attrConjunction|\bpart +\[\]float64|sc\.part\b|append\(sc\.preds, sc\.preds\[' internal/core/*.go | grep -v '_test\.go:'
# Guard 23, each name resolved once, and no per-call sort of <> literals.
	! grep -nE 'conjunctAttr|lastName|lastAttr|AttrIndex\(' internal/core/conjunctive.go internal/core/complex.go internal/bench/qft/qft.go internal/bench/qft/simple.go internal/bench/qft/rangeenc.go
	! grep -nE 'slices\.Sort|sort\.' internal/core/conjunctive.go internal/core/complex.go
# Guard 24, every TableMeta comes through core's one constructor.
	test "$$(ls internal/core/*.go | grep -v '_test\.go$$' | xargs cat | grep -c '&TableMeta{')" = 1
# Guard 27, the daemon ships profile-guided: default.pgo is there, sampled the
# handler, the featurizer and the forest walk, and go build applies it.
	test -f cmd/cardestd/default.pgo
	$(GO) tool pprof -top -cum -nodefraction=0 -nodecount=1000000 cmd/cardestd/default.pgo | awk ' \
		{ sub(/ \(inline\)$$/, ""); seen[$$NF] = 1 } \
		END { n = split("qfe/internal/serve.(*Server).handleEstimate qfe/internal/core.(*partitioned).FeaturizeInto qfe/internal/ml/gb.(*flatForest).predict", want, " "); \
			for (i = 1; i <= n; i++) if (!(want[i] in seen)) { print "cmd/cardestd/default.pgo has no samples in " want[i]; bad = 1 }; \
			exit bad }'
	tmp=$$(mktemp -d) && $(GO) build -o $$tmp/cardestd ./cmd/cardestd && \
	$(GO) version -m $$tmp/cardestd | grep -qE 'build[[:space:]]+-pgo=.+default\.pgo'; s=$$?; rm -rf $$tmp; exit $$s
# Guard 29, one owner of the P count: the daemon's serving-P governor. No
# other program file sets GOMAXPROCS (cmd/bench, which reports it, aside).
	! grep -rnE 'runtime\.GOMAXPROCS(\(([^0)]|0[^)])|[^(]|$$)' --include='*.go' internal cmd examples | grep -vE '_test\.go:|^cmd/bench/|^cmd/cardestd/governor\.go:'
# Guard 30, one request path: every model is served behind the chain, which
# serve asks in one place, and only the registry checks that a model is one.
	test "$$(ls internal/serve/*.go | grep -v '_test\.go$$' | xargs cat | grep -c 'EstimateBy(')" = 1
	! grep -n '\.(\*resilience\.Resilient)' internal/serve/*.go | grep -vE '_test\.go:|^internal/serve/registry\.go:'
# staticcheck and govulncheck run when installed and are skipped (not failed)
# when absent, so the target works in a container without network access.
	$(MAKE) lint

# lint runs the optional static analyzers. Both are gated on availability:
# neither tool ships with the toolchain, and ci must not require a network
# fetch to pass.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "staticcheck not installed; skipped"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; else echo "govulncheck not installed; skipped"; fi

# serve-smoke boots the estimation daemon on a random port, fires a single
# and a batched estimate, scrapes /metrics, and shuts down cleanly — an
# end-to-end check of the serving stack (internal/serve + cmd/cardestd).
serve-smoke:
	$(GO) run ./cmd/cardestd -smoke -rows 2000 -train 800 -entries 16

# bench is the one benchmark harness: a real cardestd under four workloads,
# end-to-end and per layer (cmd/bench/README.md). What the retired micro tools
# measured lives there or next to the code: label throughput, training time
# and the journal append as workload.label_qps, estimator.train_ms, gb.predict_us
# and journal.append_us; the boot's label phase as BenchmarkLabelBoot and
# sequential vs parallel labeling and training as
# BenchmarkCountManyWorkers (internal/exec) and BenchmarkTrainWorkers
# (internal/ml/gb, internal/bench/nn); batched vs per-record fsync as
# BenchmarkAppendDurable (internal/journal).
bench:
	$(GO) run ./cmd/bench

# pgo writes cmd/cardestd/default.pgo, the profile go build applies to the
# daemon alone (its default -pgo=auto reads default.pgo in the main package's
# directory; cmd/bench's build of the daemon included). BenchmarkServeProfile
# drives cmd/bench's four workloads, 7.5 s each, through the daemon's handler
# on a loopback server under go test -cpuprofile, and checks what it drove; the
# profile replaces the committed one only if those checks pass and the
# allocation pins hold when built with it (a profile's inlining can move an
# allocation to the heap). Rerun it after moving request-path code (DESIGN
# "Profile-guided build").
pgo:
	tmp=$$(mktemp -d) && \
	$(GO) test -run '^$$' -bench '^BenchmarkServeProfile$$' -benchtime 1x -o $$tmp/cardestd.test -cpuprofile $$tmp/cpu.pprof ./cmd/cardestd && \
	$(GO) test -short -pgo=$$tmp/cpu.pprof -run 'Allocs' $(ALLOC_PKGS) && \
	mv $$tmp/cpu.pprof cmd/cardestd/default.pgo; s=$$?; rm -rf $$tmp; exit $$s

fmt:
	gofmt -l -w .

# Explore the parser, journal-reader and journal-encoder fuzz targets.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/sqlparse
	$(GO) test -fuzz=FuzzJournalRead -fuzztime=30s ./internal/journal
	$(GO) test -fuzz=FuzzRecordEncoding -fuzztime=30s ./internal/journal

# Fuzz /v1/estimate: through the handler, malformed SQL/JSON must yield 4xx,
# never a 5xx or a panic; and its wire codec must agree with encoding/json on
# every body and every response.
fuzz-serve:
	$(GO) test -fuzz=FuzzEstimateHandler -fuzztime=30s ./internal/serve
	$(GO) test -fuzz=FuzzEstimateCodec -fuzztime=30s ./internal/serve

# Fuzz the persistence loaders: LoadEstimator must never panic on mutated
# snapshot bytes — the property the crash-safe store's recovery path leans
# on when it replays whatever survived a crash.
fuzz-store:
	$(GO) test -fuzz=FuzzLoadEstimator -fuzztime=30s ./internal/estimator

# Fuzz the journal segment scanner: arbitrary mutations of segment bytes
# must classify as clean / truncated / corrupt — never panic, never trust
# damaged frames. This is what journal recovery and cmd/replay lean on. The
# writer's record encoder must produce json.Marshal's bytes for any record.
fuzz-journal:
	$(GO) test -fuzz=FuzzJournalRead -fuzztime=30s ./internal/journal
	$(GO) test -fuzz=FuzzRecordEncoding -fuzztime=30s ./internal/journal

# soak is the wide crash/chaos sweep: every filesystem fault kind (crash,
# torn write, ENOSPC, short read, bit flip) at every mutating/reading
# operation ordinal, QFE_SOAK widening the per-point seed sweep, all under
# the race detector, plus the recovery, canary and rollback suites end to end.
soak:
	QFE_SOAK=1 $(GO) test -race -run 'Crash|Chaos|Fault|Sweep|Recover|Canary|Rollback' \
		./internal/store/... ./internal/resilience/faultinject/... ./internal/serve/... \
		./internal/journal/... ./cmd/cardestd/...
