GO ?= go

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
# and on a miss that evicts <= 5 (the query is parsed into the request's
# arena; no timer, no list node).
	$(GO) test -short -run 'Allocs' ./internal/core ./internal/estimator ./internal/sqlparse ./internal/resilience ./internal/serve
# The daemon ships built with cmd/cardestd/default.pgo, and the inlining the
# profile buys changes escape analysis; go test builds these packages without
# it (-pgo=auto reads only a main package's profile), so the pins run again
# under the daemon's profile: they hold for the build that ships.
	$(GO) test -short -pgo=$(CURDIR)/cmd/cardestd/default.pgo -run 'Allocs' ./internal/core ./internal/estimator ./internal/sqlparse ./internal/resilience ./internal/serve
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
# journal's batched-vs-per-record fsync and a commit's class keys over shared
# vs distinct queries (reports fingerprints/record), labeling across workers
# and the boot's label phase over a built table (it reports the tables'
# construction ANALYZE as analyze-ms), and a cache miss's parse and
# featurization alone, on the benchmark's mixed traffic (the per-layer
# numbers of the cold path: sqlparse.parse_us and core.featurize_us).
	$(GO) test -run '^$$' -bench 'TrainQFT|TrainHistogram|TrainWorkers|AppendDurable|FlushFingerprints|CountManyWorkers|LabelBoot|FeaturizeMixed|ParseMixed' -benchtime 1x ./internal/ml/gb ./internal/journal ./internal/exec ./internal/core ./internal/sqlparse
# The generator make pgo profiles, 0.5 s per workload instead of 7.5: it
# fails if any answer is not a 200 from the learned stage, a cold workload
# hits the cache, a warmed one misses it, or a feedback answer never
# reaches the journal.
	$(GO) test -short -run '^$$' -bench '^BenchmarkServeProfile$$' -benchtime 1x ./cmd/cardestd
# Guard 1, one inference path: outside tests and cmd/bench, no reference twin,
# no batch form of Predict, no EstimateBatch method.
	! grep -rnE 'PredictReference|PredictInto|PredictBatch|func \(.*\) EstimateBatch' --include='*.go' internal cmd | grep -vE '_test\.go:|^cmd/bench/'
# Guard 2, one supervision idiom: background work is a goroutine owned by the
# object whose work it is (the journal writer), and a request is gated by
# nothing but its own deadline (guard 28) — no generic job runner, no probe
# actor, no per-request retry policy, tests included.
	! grep -rnE 'NewSupervisor|StartSupervisor|SupervisorConfig|JobSpec|JobFunc|ErrJobActive|ProbeNow|RetryConfig|IsPermanent' --include='*.go' internal cmd
# Guard 3, one evaluator: exec counts on column dictionaries; outside tests,
# where the scan kernels live on as its oracle, there is no row-scan
# comparison kernel and no predicate-bitmap cache to fall back to.
	! grep -rnE 'PredCache|NewPredCache|EvalExprCached|CountCached|eqWord|ltWord|leWord' --include='*.go' . | grep -vE '_test\.go:'
# Guard 4, the request path stays off the canonical fingerprint: the estimate
# cache is keyed on the query text, and the class key is computed where it is
# filed (the journal writer, replay).
	! grep -rn 'core\.Fingerprint' --include='*.go' internal/serve | grep -v _test.go
# Guard 5, the journal's writer is woken per batch: Append stages under the
# mutex and no per-record channel handoff comes back.
	! grep -rn 'chan Record' --include='*.go' internal/journal | grep -v _test.go
# Guard 6, the production tree holds what a serving or training binary can
# reach: no dependency of a serving, training or benchmark binary lives under
# internal/bench (cmd/benchrunner is the harness's own binary) or is an MSCN,
# feed-forward network or mlmath package — the paper's global baselines
# (MSCN, the global model) are trained only by the harness, so they live in
# it (internal/bench/mscn, internal/bench/global.go), and so does the NN
# (internal/bench/nn, with the mlmath kernel it shares with MSCN), which lost
# ext9's bar for a serving slot to GB — and neither core nor estimator
# declares an MSCN or global-model name for them, nor estimator or cli an NN
# adapter, factory or by-name resolver: the binaries build and persist GB
# alone ...
	! $(GO) list -deps ./cmd/cardestd ./cmd/cardest ./cmd/replay ./cmd/datagen ./cmd/bench | grep -E 'qfe/internal/bench|mscn|/nn$$|mlmath'
	! for p in core estimator; do $(GO) doc -all qfe/internal/$$p; done | grep -P '^(func|type|var|const) |^\t\w' | grep -E 'MSCN|Global'
	! for p in estimator cli; do $(GO) doc -all qfe/internal/$$p; done | grep -P '^(func|type|var|const) |^\t\w' | grep -E 'NN|FactoryByName'
# ... and the snapshot kinds nothing can write, and the regressor nothing can
# serve, do not come back outside the harness.
	! grep -rnE 'KindGlobal|KindHybrid|LoadGlobal|LoadHybrid|NewLinRegFactory' --include='*.go' internal cmd | grep -v '^internal/bench/'
# Guard 7, one accumulation path: gb accumulates a tree's root and the smaller
# child of each split and takes every other histogram as parent less sibling;
# the per-node accumulate-scan-clear lives on only in _test.go, as the dense
# oracle, and does not come back beside it.
	! grep -rnE 'func \(b \*builder\) (rangeSplits|cellSplits)' --include='*.go' internal/ml/gb | grep -v '_test\.go:'
# Guard 8, the journal's class key has one home: the writer names each
# distinct query once per commit, so the daemon's feedback hook computes none,
# and frames records by hand, so no reflection encoder comes back beside it.
	! grep -n 'core\.Fingerprint(' cmd/cardestd/main.go
	! grep -rn 'json\.Marshal(' --include='*.go' internal/journal | grep -v _test.go
# Guard 9, one GB representation: a model is its flat forest; the per-tree
# arenas live only inside the fit (and in format-1 decoding, which packs them
# at once), so no Trees field and no compile of a model's trees comes back.
	! grep -rnwE 'Trees|compileForest\(m\.' --include='*.go' internal/ml/gb | grep -v '_test\.go:'
# Guard 10, a miss arms no timer and allocates no list node: the estimate
# cache is a slot array per shard (container/list lives on in cache_test.go as
# its oracle), and the request path's deadline is resilience.WithDeadline,
# which arms a timer only for a caller that selects on Done — and none does:
# the chain, its one reader, reads Err (guard 26). The canary's
# once-per-canary timeout (canary.go) is not on the request path.
	! grep -rn 'container/list' --include='*.go' internal/serve | grep -v '_test\.go:'
	! grep -nE 'context\.With(Deadline|Timeout)' internal/serve/serve.go internal/serve/estimate.go internal/serve/cache.go internal/resilience/resilience.go
# Guard 11, one serving chain: every binary wraps its models in cli.Chain,
# learned → independence → row-count, as ext9 measured it. Bernoulli sampling
# is a harness baseline (fig4, ext9; cmd/bench mirrors the old chain until its
# next change): no serving package constructs it, and cardestd has no
# -fallback flag to arm or disarm the chain with.
	! grep -rnE 'NewSampling|Sampling\{' --include='*.go' cmd/cardestd cmd/cardest internal/cli internal/serve internal/resilience | grep -v '_test\.go:'
	! grep -n '"fallback"' cmd/cardestd/main.go
# Guard 13, a model is judged once, at one door: nothing alters an estimator
# after it is published, so the lifecycle re-probes nothing and starts no
# goroutine (no probe loop, no fault injector that changes its faults, no
# -probe-interval), and every model reaches the registry through
# Lifecycle.Publish, Recover or Rollback — no ungated load, and no branch for a
# missing lifecycle where the server and the boot publish.
	! grep -rnE 'ProbeEvery|ProbeOutcome|func \(lc \*Lifecycle\) Probe\(|\.LoadFile\(|SetConfig\(' --include='*.go' internal cmd | grep -v '_test\.go:'
	! grep -n '"probe-interval"' cmd/cardestd/main.go
	! grep -nE 'Lifecycle == nil|lc == nil' internal/serve/serve.go cmd/cardestd/boot.go
# Guard 14, the daemon retrains nothing: benchrunner's ext10 measured that no
# retrain on feedback heals the paper's query drift by the bar it was held to
# (>= 25 % off the drifted median at <= 5 % in-distribution cost), so the
# loop went. No drift monitor or retrainer package, no -retrain flag and no
# GET /v1/drift, and none of the checkpoint/resume plumbing only the
# retrainer used: model-level checkpoints and Resume in gb/nn/mscn, the
# estimator's resumable progress, the store's checkpoint slots, the Adam
# state a resumed network needed, the journal's commit hook that fed the
# actuals index. Folded in from guard 12, which held the loop while it lived:
# no relabel pass (nor its resumable count and label-phase checkpoint), no
# column-domain detector, no estimate-cache bypass latched by an alarm, and
# no flag for a drift threshold or the retrain cooldown.
	! grep -rnE '"qfe/internal/(trainer|drift)"' --include='*.go' .
	! grep -nE '"(retrain|drift-[a-z-]+|retrain-cooldown)"|/v1/drift' cmd/cardestd/*.go | grep -v '_test\.go:'
	! grep -rnE 'CheckpointEvery|OnCheckpoint|ErrBadCheckpoint|ErrBadProgress|PutCheckpoint|ReadCheckpoint|DenseState|OnCommit|DomainDetector|DomainConfig|CacheBypass|AlarmActive|CountManyResume|phaseLabel' --include='*.go' . | grep -v '_test\.go:'
# Guard 15, one clock and no test-only knobs. The journal (record stamps,
# segment age, the flush timer, FlushMicros) reads time only through
# internal/clock, so a test drives it on clock.Fake without waiting. The wall
# clock stays, on purpose, on the request path — the handler's entry and
# latency (serve.go), resilience.WithDeadline (which must stay inlinable) and
# Resilient's Timeout — and for the lifecycle's rollback and canary
# timestamps and the store's manifest stamp.
# And the sizes and times no binary set are constants: none of the 17 retired
# config fields comes back, nor BreakerConfig.
	! grep -nE 'time\.(Now|Since|NewTimer|After)\(' internal/journal/*.go | grep -v '_test\.go:'
	! for t in serve.Config serve.CacheConfig serve.CanaryConfig resilience.Config journal.Options store.Options; do $(GO) doc -u qfe/internal/$$t; done | grep -E '^\s+(RetryAfter|MaxTimeout|MaxQueriesPerRequest|MaxBodyBytes|Shards|Slack|Breaker|FailureThreshold|Cooldown|HalfOpenProbes|DefaultEstimate|SegmentAge|Queue|FlushBatch|FlushEvery|Now)\s'
	! $(GO) doc -u qfe/internal/store.Options | grep -E '^\s+Retain\s'
	! grep -rn 'BreakerConfig' --include='*.go' internal cmd
# Guard 16, snapshot bytes are the only way in: the lifecycle decodes every
# model it admits, in its one admit step, so the load endpoint, the daemon's
# -load and its boot model hand it bytes and decode nothing themselves, and no
# caller can hand it a model, or a kind that disagrees with the bytes. The
# decoder alone decides the kind: the store's manifest records none.
	! grep -rn 'LoadEstimator(' --include='*.go' internal/serve cmd/cardestd | grep -vE '_test\.go:|^internal/serve/lifecycle\.go:'
	! grep -rn 'LoadEstimator(' --include='*.go' cmd/cardestd
	test "$$(grep -c 'LoadEstimator(' internal/serve/lifecycle.go)" = 1
	! $(GO) doc -u qfe/internal/serve.PublishSpec | grep -E '^\s+(Est|Kind)\s'
	! $(GO) doc -u qfe/internal/store.Manifest | grep -E '^\s+Kind\s'
# Guard 17, a model is judged on traffic at its door: the lifecycle samples the
# journal's sealed traffic when a publish, recovery or rollback brings it a
# model, and nothing reads the journal in between. So no rotation hook, no
# canary-workload swap, no in-place rewrite of a registered model's info and no
# refresher goroutine come back, and the live model keeps no verdict of its
# own: a candidate's incumbent is scored at the door, on the same workload.
	! grep -rnwE 'OnRotate|SetCanaryWorkload|UpdateInfo|coalesced' --include='*.go' internal cmd | grep -v '_test\.go:'
	! $(GO) doc -u qfe/internal/serve.liveModel | grep -E '^\s+baseline\s'
# Guard 18, a miss is computed by the request that missed: concurrent
# identical misses each compute on their own goroutine (a singleflight over
# them collapsed no request on any cmd/bench workload), and the resilience
# chain calls every stage on the caller's goroutine. So no flight table, no
# collapse counter and no estCache.do come back to the estimate cache, and no
# goroutine to the chain. The journal is reported by the server from the
# lifecycle that holds it, so the two one-user hooks it rode in on stay gone.
	! grep -rnE 'flights|cacheCollapsed|func \(c \*estCache\) do\(' --include='*.go' internal/serve | grep -v '_test\.go:'
	! grep -n 'go func' internal/resilience/resilience.go
	! grep -rnE 'ExtraMetrics|StatusPages' --include='*.go' internal cmd | grep -v '_test\.go:'
# Guard 19, one ANALYZE per column, held by the table: table.Column reads min,
# max, distinct count and the equi-width histogram off its value dictionary
# when it is constructed, and Independence reads that record, so it keeps no
# statistics map, no scan of its own and no bucket knob (the histogram's 100
# buckets are the table's; the scan it replaced is its oracle in
# independence_test.go) — and, since the record is immutable, no lock, here or
# inside internal/table (guard 21). And the row-count heuristic's stand-in for
# an unknown table's size is a constant: no caller set it.
	! grep -nE 'sync\.|statsFor|Buckets|\.Vals' internal/estimator/independence.go
	! $(GO) doc -u qfe/internal/resilience.RowCount | grep -w 'DefaultRows'
# Guard 20, the daemon serves without rows: once its queries are labelled,
# boot frees every table's rows and value dictionaries (table.DB.DropRows), and
# the daemon trains, publishes and estimates from each column's statistics, so no serving package
# reads a row — what still would fails loudly instead of counting an empty
# table (TestDroppedRowsFailLoudly).
	grep -q 'DB\.DropRows()' cmd/cardestd/boot.go
	! grep -rn '\.Vals\b' --include='*.go' internal/serve internal/resilience cmd/cardestd | grep -v '_test\.go:'
# Guard 21, one ANALYZE, at construction: NewColumn and NewStringColumn build
# a column's value dictionary and read its record off it, and nothing changes
# either until DB.DropRows frees the rows. So no lazy path, stats mutex,
# invalidation, dictionary drop or build accounting comes back (the map-based
# pass it replaced is the oracle of TestStatsMatchOracle).
	! grep -rnE 'statsMu|statsValid|ensureStats|InvalidateStats|DropDictionaries|DictionaryBuilds|DictBuilt|DictTime' --include='*.go' internal cmd examples | grep -v '_test\.go:'
	! grep -nw --exclude='*_test.go' 'sync' internal/table/*.go
# Guard 22, Algorithms 1 and 2 on partition intervals: a DNF term is a term
# (the partitions that may be nonzero, the few a literal splits or empties,
# the selectivity bounds), each literal placed once and a product the meet of
# two terms. So no per-term partition vector (attrConjunction writing a
# scratch part) and no arena of predicate copies per DNF term come back
# beside it; the replaced body is the oracle in terms_test.go.
	! grep -nE 'func \(sc \*scratch\) attrConjunction|\bpart +\[\]float64|sc\.part\b' internal/core/*.go | grep -v '_test\.go:'
	! grep -nE 'append\(sc\.preds, sc\.preds\[' internal/core/*.go | grep -v '_test\.go:'
# Guard 23, each name resolved once: exec.Bind stamps every predicate with its
# column (sqlparse.Pred.Col), and the featurizers — core's two and the
# harness's baselines in internal/bench/qft — read the attribute off the stamp
# through TableMeta's column-to-slot slice (TableMeta.Slot), checking one
# attribute per conjunct as the fold meets each predicate. So the by-name grouping — a
# conjunctAttr walk resolving names, the scratch's last-name cache, AttrIndex
# on the featurize path — stays in byname_test.go as the oracle; and sel
# counts a term's <> literals, which and and meet keep ascending and
# distinct, without sorting them per call.
	! grep -nE 'conjunctAttr|lastName|lastAttr|AttrIndex\(' internal/core/conjunctive.go internal/core/complex.go internal/bench/qft/qft.go internal/bench/qft/simple.go internal/bench/qft/rangeenc.go
	! grep -nE 'slices\.Sort|sort\.' internal/core/conjunctive.go internal/core/complex.go
# Guard 24, partitions fixed in one place: every TableMeta comes through
# core's one constructor, which refuses a meta a featurizer cannot run on. The
# partition policies the daemon never builds (histogram.PartitionedMeta for
# ext3, bench's adaptiveMeta for ext2) and the Section 6 GROUP BY wrapper
# (ext6) live in the harness beside their experiments and reach core through
# its spec constructor; exec.Bind alone rewrites LIKE 'p%'; and BucketOf is
# the oracle in _test.go that the tabulated lookup is held to.
	! grep -nE 'NewTableMetaPartitioned|NewTableMetaAdaptive|type Partitioner|WithGroupBy|GroupByVector|PrefixPreds|func \(a AttrMeta\) BucketOf' internal/core/*.go | grep -v '_test\.go:'
	test "$$(ls internal/core/*.go | grep -v '_test\.go$$' | xargs cat | grep -c '&TableMeta{')" = 1
# Guard 25, the served surface is the paper's two encodings: core builds
# Universal Conjunction and Limited Disjunction Encoding, the binaries train
# complex alone, and a snapshot regresses on log2 labels. Singular and Range
# Predicate Encoding, the baselines the paper's experiments beat, live in the
# harness (internal/bench/qft) with the name switch over all four, and the
# raw-label arm of abl4 runs in the harness's trainEvalCustom: neither
# baseline, its helpers, nor the estimator's raw-label switch comes back to
# the serving tree.
	! grep -rnE 'type (Simple|Range) |NewSimple|NewRange|FeaturizeAttrRange|OpBits|closedRange' --include='*.go' internal/core internal/estimator internal/cli cmd/cardest cmd/cardestd | grep -v '_test\.go:'
	! $(GO) doc -all qfe/internal/core | grep -P '^(func|type|var|const) |^\t\w' | grep -wE 'Simple|Range|OpBits|FeaturizeAttrRange'
	! $(GO) doc -u qfe/internal/estimator.LocalConfig | grep -E '^\s+(RawLabels|QFT)\s'
# Guard 26, the chain alone reads a request's deadline: Resilient checks Err
# before each stage, and every stage is a plain estimator.Estimator — an
# estimate is microseconds of arithmetic with nothing to wait on — so a
# deadline that lapses inside a stage is never the model's failure. No
# context-taking estimator interface, dispatch helper or EstimateCtx method
# comes back outside tests, nor faultinject's count of latency cut short by a
# context; and cardest, which serves no request, declares no -timeout.
	! grep -rnE 'ContextEstimator|EstimateWithContext|EstimateCtx|LatencyTimeouts' --include='*.go' internal cmd examples | grep -v '_test\.go:'
	! grep -n '"timeout"' cmd/cardest/main.go
# Guard 27, the daemon ships profile-guided: cmd/cardestd/default.pgo is
# there, go tool pprof reads it, it sampled the handler, the featurizer and
# the forest walk (a profile of other traffic would guide the request path
# nowhere), and go build applies it to cardestd (go version -m names it).
	test -f cmd/cardestd/default.pgo
	$(GO) tool pprof -top -cum -nodefraction=0 -nodecount=1000000 cmd/cardestd/default.pgo | awk ' \
		{ sub(/ \(inline\)$$/, ""); seen[$$NF] = 1 } \
		END { n = split("qfe/internal/serve.(*Server).handleEstimate qfe/internal/core.(*partitioned).FeaturizeInto qfe/internal/ml/gb.(*flatForest).predict", want, " "); \
			for (i = 1; i <= n; i++) if (!(want[i] in seen)) { print "cmd/cardestd/default.pgo has no samples in " want[i]; bad = 1 }; \
			exit bad }'
	tmp=$$(mktemp -d) && $(GO) build -o $$tmp/cardestd ./cmd/cardestd && \
	$(GO) version -m $$tmp/cardestd | grep -qE 'build[[:space:]]+-pgo=.+default\.pgo'; s=$$?; rm -rf $$tmp; exit $$s
# Guard 28, every stage is asked on every request: an estimator is a pure
# function of its query and a published model never changes, so a stage's
# failure on one query says nothing about the next, and no circuit breaker
# skips a stage for a cooldown (cmd/bench is left out, as in guard 1, until
# its next change). With no cooldown to time, the chain reads no clock:
# resilience.Config has no Clock.
	! grep -rnE 'Breaker|BreakerState|ErrBreakerOpen|StateHalfOpen|halfOpenProbes|failureThreshold' --include='*.go' internal cmd examples | grep -vE '_test\.go:|^cmd/bench/'
	! $(GO) doc -u qfe/internal/resilience.Config | grep -E '^\s+Clock\s'
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
# profile replaces the committed one only if those checks pass. Rerun it after
# moving request-path code (DESIGN "Profile-guided build").
pgo:
	tmp=$$(mktemp -d) && \
	$(GO) test -run '^$$' -bench '^BenchmarkServeProfile$$' -benchtime 1x -o $$tmp/cardestd.test -cpuprofile $$tmp/cpu.pprof ./cmd/cardestd && \
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
