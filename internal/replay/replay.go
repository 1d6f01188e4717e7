// Package replay scores estimators against the real traffic captured by
// the feedback journal, closing the loop the synthetic workloads cannot:
// estimator rankings flip between synthetic and production query
// distributions, so the journal's labeled records — not generated ones —
// are what publish gates and offline comparisons should run on.
//
// Four tools live here:
//
//   - Replay streams journaled records through any estimator and produces a
//     q-error report (median/p95/max, per-table breakdowns) from the
//     client-reported actuals;
//   - DeriveCanary turns recent labeled traffic into a workload.Set via a
//     deterministic reservoir sample; TrafficCanary is the one serve's
//     lifecycle judges a model on when it admits it;
//   - ActualIndex is a bounded fingerprint → actual-cardinality map that
//     only cmd/bench's traced replay still builds;
//   - Traffic counts a journal's distinct texts and featurization classes,
//     and the repeats only a class-keyed cache would have served — the
//     measurement behind keying serve's estimate cache on the query text.
package replay

import (
	"math"
	"math/rand"
	"sort"
	"sync"

	"qfe/internal/core"
	"qfe/internal/estimator"
	"qfe/internal/exec"
	"qfe/internal/journal"
	"qfe/internal/metrics"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
	"qfe/internal/workload"
)

// TableStats is the q-error breakdown for one table combination.
type TableStats struct {
	Queries int     `json:"queries"`
	Median  float64 `json:"median"`
	P95     float64 `json:"p95"`
	Max     float64 `json:"max"`
}

// Report is the outcome of replaying a record stream through one estimator.
type Report struct {
	Model string `json:"model"`
	// Records is how many journal records the replay saw.
	Records int `json:"records"`
	// Unlabeled records carry no actual and cannot be scored.
	Unlabeled int `json:"unlabeled"`
	// Unparsed records carry SQL that no longer parses (or empty SQL).
	Unparsed int `json:"unparsed"`
	// Failed estimates (errors, records that do not bind)
	// score as +Inf q-error.
	Failed int `json:"failed"`
	// Scored is how many q-errors the summary aggregates.
	Scored int     `json:"scored"`
	Median float64 `json:"median"`
	P95    float64 `json:"p95"`
	Max    float64 `json:"max"`
	// PerTable breaks the q-errors down by the query's FROM list
	// (comma-joined, as rendered by sqlparse).
	PerTable map[string]TableStats `json:"perTable,omitempty"`
}

// Replay estimates every labeled record with est and aggregates q-errors
// against the journaled actuals. Replay order is the journal's (oldest
// first), so the report is deterministic for a fixed estimator and stream,
// and it accounts for every record it was given. Each record is parsed and
// bound against db, as the daemon did on receipt; one that does not bind is
// scored as failed.
func Replay(est estimator.Estimator, records []journal.Record, db *table.DB) Report {
	rep := Report{Model: est.Name(), Records: len(records), PerTable: map[string]TableStats{}}
	var all []float64
	perTable := map[string][]float64{}
	for _, rec := range records {
		if !rec.HasActual {
			rep.Unlabeled++
			continue
		}
		q, err := sqlparse.Parse(rec.SQL)
		if err != nil {
			rep.Unparsed++
			continue
		}
		qerr, e := math.Inf(1), 0.0
		if err = exec.Bind(q, db); err == nil {
			e, err = est.Estimate(q)
		}
		if err != nil {
			rep.Failed++
		} else {
			qerr = metrics.QError(rec.Actual, e)
		}
		all = append(all, qerr)
		key := tableKey(q)
		perTable[key] = append(perTable[key], qerr)
	}
	rep.Scored = len(all)
	rep.Median, rep.P95, rep.Max = summarize(all)
	for key, errs := range perTable {
		med, p95, max := summarize(errs)
		rep.PerTable[key] = TableStats{Queries: len(errs), Median: med, P95: p95, Max: max}
	}
	return rep
}

func tableKey(q *sqlparse.Query) string {
	if len(q.Tables) == 0 {
		return "(none)"
	}
	if len(q.Tables) == 1 {
		return q.Tables[0]
	}
	tables := append([]string(nil), q.Tables...)
	sort.Strings(tables)
	key := tables[0]
	for _, t := range tables[1:] {
		key += "," + t
	}
	return key
}

func summarize(errs []float64) (median, p95, max float64) {
	if len(errs) == 0 {
		return 0, 0, 0
	}
	for _, e := range errs {
		if e > max || math.IsInf(e, 1) {
			max = e
		}
	}
	return metrics.Quantile(errs, 0.5), metrics.Quantile(errs, 0.95), max
}

// CanarySeed seeds the reservoir of every traffic canary, so the sample the
// serving lifecycle judges a model on and the one cmd/replay -derive-canary
// prints are the same.
const CanarySeed = 1

// TrafficCanary is the traffic sample the serving lifecycle judges a model
// on: DeriveCanary at CanarySeed, less the sampled queries that do not bind
// against db (their table or column is not served).
func TrafficCanary(records []journal.Record, n int, db *table.DB) workload.Set {
	ws := DeriveCanary(records, n, CanarySeed)
	bound := ws[:0]
	for _, l := range ws {
		if exec.Bind(l.Query, db) == nil {
			bound = append(bound, l)
		}
	}
	return bound
}

// DeriveCanary reservoir-samples up to n labeled queries from records into
// a canary workload.Set. The sample is deterministic for a fixed record
// stream, n, and seed (Vitter's algorithm R over the eligible records, in
// journal order), so two recoveries of the same journal derive the same
// canary. Records are eligible when they carry an actual of at least one
// row (the q-error convention scores only non-empty results), parse, and
// are the first occurrence of their fingerprint, core.Fingerprint of the
// parsed SQL — real traffic repeats queries, and a canary of thirty copies of
// one hot query gates nothing. A record whose text was already taken is
// passed over before it is parsed, so each distinct text is parsed once.
func DeriveCanary(records []journal.Record, n int, seed int64) workload.Set {
	if n <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	texts, seen := map[string]bool{}, map[string]bool{}
	reservoir := make(workload.Set, 0, n)
	eligible := 0
	for _, rec := range records {
		if !rec.HasActual || rec.Actual < 1 || rec.Actual != math.Trunc(rec.Actual) || texts[rec.SQL] {
			continue
		}
		texts[rec.SQL] = true
		q, err := sqlparse.Parse(rec.SQL)
		if err != nil {
			continue
		}
		fp := core.Fingerprint(q)
		if seen[fp] {
			continue
		}
		seen[fp] = true
		labeled := workload.Labeled{Query: q, Card: int64(rec.Actual)}
		eligible++
		if len(reservoir) < n {
			reservoir = append(reservoir, labeled)
			continue
		}
		if k := rng.Intn(eligible); k < n {
			reservoir[k] = labeled
		}
	}
	return reservoir
}

// TrafficStats says how a journal's records repeat. serve's estimate cache is
// keyed on the query text; core.Fingerprint keys the coarser featurization
// class. A record whose class was seen earlier but whose text was not is what
// the text key forgoes: SemanticOnly counts them.
type TrafficStats struct {
	Records              int `json:"records"`
	DistinctTexts        int `json:"distinct_texts"`
	DistinctFingerprints int `json:"distinct_fingerprints"`
	// SemanticOnly is how many records repeat an earlier record's fingerprint
	// under a text no earlier record had.
	SemanticOnly int `json:"semantic_only"`
}

// SemanticOnlyShare is SemanticOnly over Records (0 for an empty journal).
func (t TrafficStats) SemanticOnlyShare() float64 {
	if t.Records == 0 {
		return 0
	}
	return float64(t.SemanticOnly) / float64(t.Records)
}

// Traffic computes TrafficStats over records in journal order. A record's
// class is the fingerprint its SQL parses to, computed once per distinct
// text; a record whose SQL does not parse is counted by its text alone (no
// cache ever held it).
func Traffic(records []journal.Record) TrafficStats {
	st := TrafficStats{Records: len(records)}
	keys, fps := map[string]string{}, map[string]bool{} // text → its class ("" when it does not parse)
	for _, rec := range records {
		fp, seenText := keys[rec.SQL]
		if !seenText {
			if q, err := sqlparse.Parse(rec.SQL); err == nil {
				fp = core.Fingerprint(q)
			}
			keys[rec.SQL] = fp
		}
		if fp == "" {
			continue
		}
		if fps[fp] && !seenText {
			st.SemanticOnly++
		}
		fps[fp] = true
	}
	st.DistinctTexts, st.DistinctFingerprints = len(keys), len(fps)
	return st
}

// ActualIndex is a bounded fingerprint → actual-cardinality index. Nothing
// reads it; it stays only because cmd/bench's traced replay of the feedback
// hook still fills one. When full, new fingerprints are dropped while known
// ones keep updating to the freshest actual.
type ActualIndex struct {
	mu  sync.Mutex
	cap int
	m   map[string]int64
}

// NewActualIndex returns an index holding at most capacity fingerprints.
// capacity <= 0 means the default 65536.
func NewActualIndex(capacity int) *ActualIndex {
	if capacity <= 0 {
		capacity = 65536
	}
	return &ActualIndex{cap: capacity, m: make(map[string]int64)}
}

// Put records the actual cardinality for a fingerprint. Non-negative
// integral actuals an int64 holds only; anything else is ignored. As a
// float64 math.MaxInt64 is 2^63, one more than an int64 holds, so the bound is
// exclusive: the largest actual kept is the float64 below it, 2^63-1024.
func (ix *ActualIndex) Put(fingerprint string, actual float64) {
	if fingerprint == "" || !(actual >= 0) || actual != math.Trunc(actual) || actual >= math.MaxInt64 {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, ok := ix.m[fingerprint]; !ok && len(ix.m) >= ix.cap {
		return
	}
	ix.m[fingerprint] = int64(actual)
}
