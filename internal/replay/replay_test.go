package replay_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"qfe/internal/core"
	"qfe/internal/journal"
	"qfe/internal/replay"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
	"qfe/internal/testutil"
	"qfe/internal/workload"
)

// constEst answers every estimate with a fixed value.
type constEst float64

func (c constEst) Name() string                              { return "const" }
func (c constEst) Estimate(*sqlparse.Query) (float64, error) { return float64(c), nil }

// errEst fails every estimate.
type errEst struct{}

func (errEst) Name() string                              { return "err" }
func (errEst) Estimate(*sqlparse.Query) (float64, error) { return 0, errors.New("boom") }

// tDB holds the table the records' queries name: t, with a column a.
func tDB() *table.DB {
	t := table.New("t")
	t.MustAddColumn(table.NewColumn("a", []int64{0, 1}))
	db := table.NewDB()
	db.MustAdd(t)
	return db
}

func labeledRec(i int, actual float64) journal.Record {
	return journal.Record{
		UnixMicros: int64(i) + 1,
		SQL:        fmt.Sprintf("SELECT count(*) FROM t WHERE a >= %d", i),
		Actual:     actual,
		HasActual:  true,
	}
}

func TestReplayReport(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	records := []journal.Record{
		labeledRec(0, 10),   // q-error 1 against constEst(10)
		labeledRec(1, 10),   // q-error 1
		labeledRec(2, 1000), // q-error 100
		{UnixMicros: 4, SQL: "SELECT count(*) FROM t WHERE a >= 4", Estimate: 5}, // unlabeled
		{UnixMicros: 5, SQL: "this is not SQL", Actual: 3, HasActual: true},      // unparseable
	}
	rep := replay.Replay(constEst(10), records, tDB())
	if rep.Model != "const" {
		t.Errorf("Model = %q, want the estimator's name", rep.Model)
	}
	if rep.Records != 5 || rep.Scored != 3 || rep.Unlabeled != 1 || rep.Unparsed != 1 || rep.Failed != 0 {
		t.Fatalf("accounting = %+v, want 5 records / 3 scored / 1 unlabeled / 1 unparsed", rep)
	}
	if rep.Median != 1 || rep.Max != 100 {
		t.Errorf("median %v / max %v, want 1 / 100 over q-errors {1,1,100}", rep.Median, rep.Max)
	}
	ts, ok := rep.PerTable["t"]
	if !ok || ts.Queries != 3 || ts.Max != 100 {
		t.Errorf("PerTable[t] = %+v (ok=%v), want all 3 scored queries", ts, ok)
	}
}

func TestReplayDeterministic(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	records := make([]journal.Record, 40)
	for i := range records {
		records[i] = labeledRec(i, float64(i%7)+1)
	}
	a := replay.Replay(constEst(4), records, tDB())
	b := replay.Replay(constEst(4), records, tDB())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two replays of the same stream differ:\n%+v\n%+v", a, b)
	}
}

func TestReplayScoresFailuresAsInf(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	records := []journal.Record{labeledRec(0, 10), labeledRec(1, 10)}
	rep := replay.Replay(errEst{}, records, tDB())
	if rep.Failed != 2 || rep.Scored != 2 {
		t.Fatalf("accounting = %+v, want both records failed AND scored", rep)
	}
	if !math.IsInf(rep.Max, 1) {
		t.Errorf("Max = %v, want +Inf for failed estimates", rep.Max)
	}
}

func TestDeriveCanaryDeterministicAndDeduplicated(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	records := make([]journal.Record, 0, 60)
	for i := 0; i < 30; i++ {
		records = append(records, labeledRec(i, float64(i)+1))
		// Real traffic repeats: every query appears twice (same fingerprint).
		records = append(records, labeledRec(i, float64(i)+1))
	}
	a := replay.DeriveCanary(records, 10, 42)
	b := replay.DeriveCanary(records, 10, 42)
	if len(a) != 10 {
		t.Fatalf("canary holds %d queries, want 10", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("derivations differ in size: %d vs %d", len(a), len(b))
	}
	seen := map[string]bool{}
	for i := range a {
		if a[i].Query.String() != b[i].Query.String() || a[i].Card != b[i].Card {
			t.Fatalf("derivation is not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
		fp := core.Fingerprint(a[i].Query)
		if seen[fp] {
			t.Fatalf("canary holds fingerprint %s twice", fp)
		}
		seen[fp] = true
	}
}

func TestDeriveCanaryEligibility(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	records := []journal.Record{
		labeledRec(0, 5), // the only eligible record
		{UnixMicros: 2, SQL: "SELECT count(*) FROM t WHERE a >= 90", Estimate: 5},                  // no actual
		{UnixMicros: 3, SQL: "SELECT count(*) FROM t WHERE a >= 91", Actual: 0, HasActual: true},   // empty result: q-error convention needs >= 1
		{UnixMicros: 4, SQL: "SELECT count(*) FROM t WHERE a >= 92", Actual: 2.5, HasActual: true}, // fractional actual
		{UnixMicros: 5, SQL: "not sql at all", Actual: 3, HasActual: true},                         // unparseable
	}
	ws := replay.DeriveCanary(records, 10, 1)
	if len(ws) != 1 || ws[0].Card != 5 {
		t.Fatalf("canary = %v, want exactly the one eligible record (card 5)", ws)
	}
	if got := replay.DeriveCanary(records, 0, 1); got != nil {
		t.Errorf("DeriveCanary(n=0) = %v, want nil", got)
	}
}

// deriveCanaryParseFirst is DeriveCanary as it was written first: every
// record with a usable actual is parsed before its fingerprint is looked up,
// so a journal of a few hot queries costs one parse per record. It is the
// oracle for the text-first order, which parses each distinct text once.
func deriveCanaryParseFirst(records []journal.Record, n int, seed int64) workload.Set {
	if n <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	reservoir := make(workload.Set, 0, n)
	eligible := 0
	for _, rec := range records {
		if !rec.HasActual || rec.Actual < 1 || rec.Actual != math.Trunc(rec.Actual) {
			continue
		}
		q, err := sqlparse.Parse(rec.SQL)
		if err != nil {
			continue
		}
		fp := rec.Fingerprint
		if fp == "" {
			fp = core.Fingerprint(q)
		}
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

// TestDeriveCanaryMatchesParseFirst: passing over a text already taken
// before the parse draws the same sample as parsing first, on a stream that
// mixes hot repeats, records journaled with and without a fingerprint,
// respellings of one class, a fingerprint journaled on SQL that does not
// parse, and records with no usable actual.
func TestDeriveCanaryMatchesParseFirst(t *testing.T) {
	sqlFor := func(i int) string { return fmt.Sprintf("SELECT count(*) FROM t WHERE a >= %d AND b < %d", i, i+7) }
	fpOf := func(sql string) string { return core.Fingerprint(sqlparse.MustParse(sql)) }
	rng := rand.New(rand.NewSource(1))
	var records []journal.Record
	for i := 0; i < 3000; i++ {
		k := rng.Intn(80)
		rec := journal.Record{SQL: sqlFor(k), Actual: float64(k%9 + 1), HasActual: true}
		switch i % 7 {
		case 0: // journaled without a fingerprint: named by parsing
		case 1: // the same class respelled
			rec.SQL = fmt.Sprintf("SELECT count(*) FROM t WHERE b < %d AND a >= %d", k+7, k)
			rec.Fingerprint = fpOf(rec.SQL)
		case 2: // no usable actual
			rec.Actual = 0.5
		case 3: // a fingerprint whose text does not parse: not eligible, and not seen
			rec.Fingerprint, rec.SQL = fpOf(rec.SQL), "SELECT count(*) FROM t WHERE"
		default:
			rec.Fingerprint = fpOf(rec.SQL)
		}
		records = append(records, rec)
	}
	render := func(ws workload.Set) []string {
		out := make([]string, len(ws))
		for i, l := range ws {
			out[i] = fmt.Sprintf("%s = %d", l.Query, l.Card)
		}
		return out
	}
	for _, n := range []int{0, 1, 5, 40, 80, 500} {
		for seed := int64(1); seed <= 5; seed++ {
			got, want := render(replay.DeriveCanary(records, n, seed)), render(deriveCanaryParseFirst(records, n, seed))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d seed=%d: sample\n%v\nwant the parse-first sample\n%v", n, seed, got, want)
			}
		}
	}
}

// TestClassKeyFromText: the daemon journals no fingerprint, and replay
// computes the class from the SQL where it reads it. Over such records
// DeriveCanary draws the sample, and Traffic counts the stats, that it does
// over the same records with Fingerprint filled in, as cmd/bench's hook and
// older segments file them. The stream mixes hot repeats, respellings of one
// class, text that does not parse, and records with no usable actual.
func TestClassKeyFromText(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var bare, filled []journal.Record
	for i := 0; i < 2000; i++ {
		k := rng.Intn(60)
		rec := journal.Record{SQL: fmt.Sprintf("SELECT count(*) FROM t WHERE a >= %d AND b < %d", k, k+7), Actual: float64(k%9 + 1), HasActual: true}
		switch i % 5 {
		case 1: // the same class respelled
			rec.SQL = fmt.Sprintf("SELECT count(*) FROM t WHERE b < %d AND a >= %d", k+7, k)
		case 2: // no usable actual
			rec.Actual = 0
		case 3: // text that does not parse
			rec.SQL = fmt.Sprintf("SELECT count(*) FROM t WHERE a >= %d AND", k)
		}
		bare = append(bare, rec)
		if q, err := sqlparse.Parse(rec.SQL); err == nil {
			rec.Fingerprint = core.Fingerprint(q)
		}
		filled = append(filled, rec)
	}
	render := func(ws workload.Set) []string {
		out := make([]string, len(ws))
		for i, l := range ws {
			out[i] = fmt.Sprintf("%s = %d", l.Query, l.Card)
		}
		return out
	}
	for _, n := range []int{1, 10, 60, 500} {
		for seed := int64(1); seed <= 3; seed++ {
			got, want := render(replay.DeriveCanary(bare, n, seed)), render(replay.DeriveCanary(filled, n, seed))
			if len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d seed=%d: sample without fingerprints\n%v\nwant the sample with them\n%v", n, seed, got, want)
			}
		}
	}
	got, want := replay.Traffic(bare), replay.Traffic(filled)
	if want.SemanticOnly == 0 || want.DistinctTexts == want.DistinctFingerprints {
		t.Fatalf("Traffic = %+v: the stream does not respell any class", want)
	}
	if got != want {
		t.Errorf("Traffic without fingerprints = %+v, want %+v as with them", got, want)
	}
}

// TestTraffic: a synthetic journal with known counts. Eight records, five
// texts, three classes; the two records that respell an earlier class under a
// new text are what a text-keyed cache recomputes and a class-keyed one would
// have served.
func TestTraffic(t *testing.T) {
	sql := func(where string) string { return "SELECT count(*) FROM t WHERE " + where }
	rec := func(text string, journaledFP bool) journal.Record {
		r := journal.Record{SQL: text}
		if journaledFP {
			r.Fingerprint = core.Fingerprint(sqlparse.MustParse(text))
		}
		return r
	}
	records := []journal.Record{
		rec(sql("a >= 1 AND b = 2"), true),  // class 1, text 1
		rec(sql("a >= 1 AND b = 2"), true),  // exact repeat: both keys hit
		rec(sql("b = 2 AND a >= 1"), true),  // class 1 under a new text: semantic-only
		rec(sql("b = 2 AND a >= 1"), false), // repeat of that text (fingerprint recovered from the SQL)
		rec(sql("a > 0 AND b = 2"), false),  // class 1 again, third text: semantic-only
		rec(sql("c <> 3"), true),            // class 2, first sight
		{SQL: "this is not SQL"},            // no class at all
		{SQL: "this is not SQL"},            // and repeating it changes nothing
	}
	want := replay.TrafficStats{Records: 8, DistinctTexts: 5, DistinctFingerprints: 2, SemanticOnly: 2}
	if got := replay.Traffic(records); got != want {
		t.Errorf("Traffic = %+v, want %+v", got, want)
	}
	if got := want.SemanticOnlyShare(); got != 0.25 {
		t.Errorf("SemanticOnlyShare = %v, want 0.25", got)
	}
	if got := (replay.TrafficStats{}).SemanticOnlyShare(); got != 0 {
		t.Errorf("SemanticOnlyShare of an empty journal = %v, want 0", got)
	}
}

// TestReplayScoresUnboundAsFailed: a record whose query does not bind
// against the replay's database — a column it does not have — is scored as a
// failed estimate, as the daemon would have refused it; the estimator never
// sees it.
func TestReplayScoresUnboundAsFailed(t *testing.T) {
	records := []journal.Record{labeledRec(0, 10), {UnixMicros: 2, SQL: "SELECT count(*) FROM t WHERE z = 1", Actual: 3, HasActual: true}}
	rep := replay.Replay(constEst(10), records, tDB())
	if rep.Failed != 1 || rep.Scored != 2 || rep.Unparsed != 0 {
		t.Fatalf("accounting = %+v, want 2 scored, 1 of them failed", rep)
	}
	if !math.IsInf(rep.Max, 1) {
		t.Errorf("Max = %v, want +Inf for the unbound record", rep.Max)
	}
}
