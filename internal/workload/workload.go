// Package workload generates and labels the query workloads of the paper's
// evaluation (Section 5, "Data sets & query workloads"):
//
//   - conjunctive workloads over the forest table: k distinct attributes
//     drawn at random, one closed range per attribute plus up to l
//     not-equal predicates excluding values from that range;
//   - mixed workloads (Definition 3.3): the per-attribute generation is
//     repeated up to m times and concatenated via OR;
//   - JOB-light-style join suites over the IMDb star schema: 2–5 joins,
//     conjunctive selections with at most one range per attribute;
//   - drift splits (Section 5.5.1): low-dimensional training queries versus
//     high-dimensional test queries.
//
// Every generated query is labeled with its true cardinality by the exact
// executor, and — matching the paper's setup — queries with empty results
// are discarded. Generation anchors predicates at values of randomly chosen
// data rows so that the non-empty rejection loop converges quickly.
package workload

import (
	"context"
	"fmt"
	"math/rand"

	"qfe/internal/exec"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
)

// Labeled is a query together with its true result cardinality.
type Labeled struct {
	Query *sqlparse.Query
	Card  int64
}

// Set is an ordered collection of labeled queries.
type Set []Labeled

// Cards returns the true cardinalities as float64s, ready for q-error
// computation.
func (s Set) Cards() []float64 {
	out := make([]float64, len(s))
	for i, l := range s {
		out[i] = float64(l.Card)
	}
	return out
}

// Queries returns the bare queries.
func (s Set) Queries() []*sqlparse.Query {
	out := make([]*sqlparse.Query, len(s))
	for i, l := range s {
		out[i] = l.Query
	}
	return out
}

// Split partitions the set into a training prefix of n queries and the
// remaining test queries. It panics if n exceeds the set size; the caller
// controls sizes.
func (s Set) Split(n int) (train, test Set) {
	if n > len(s) {
		panic(fmt.Sprintf("workload: split %d of %d", n, len(s)))
	}
	return s[:n], s[n:]
}

// SplitByAttrs implements the query-drift split of Section 5.5.1: queries
// mentioning at most maxTrainAttrs distinct attributes go to the training
// side, queries mentioning more go to the test side.
func (s Set) SplitByAttrs(maxTrainAttrs int) (train, test Set) {
	for _, l := range s {
		if sqlparse.NumAttributes(l.Query) <= maxTrainAttrs {
			train = append(train, l)
		} else {
			test = append(test, l)
		}
	}
	return train, test
}

// GroupByAttrs buckets the set by the number of distinct attributes
// mentioned — the x-axis of Figures 2, 4, and 5.
func (s Set) GroupByAttrs() map[int]Set {
	out := make(map[int]Set)
	for _, l := range s {
		k := sqlparse.NumAttributes(l.Query)
		out[k] = append(out[k], l)
	}
	return out
}

// GroupByPreds buckets the set by the number of simple predicates — the
// x-axis of Figure 3.
func (s Set) GroupByPreds() map[int]Set {
	out := make(map[int]Set)
	for _, l := range s {
		k := sqlparse.NumPredicates(l.Query)
		out[k] = append(out[k], l)
	}
	return out
}

// MeanCard returns the average true cardinality (reported for the drift
// workloads in Section 5.5.1).
func (s Set) MeanCard() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, l := range s {
		sum += float64(l.Card)
	}
	return sum / float64(len(s))
}

// generate runs the generators' draw-label-reject loop: it returns the first
// count queries with a non-empty result, in the order draw produces them,
// each bound (exec.Bind: its predicates stamped with their columns) once,
// before it is labeled.
// No draw depends on a label, so the queries still outstanding are drawn
// first and then labeled as one batch — exec.CountManyCtx, one worker per
// logical CPU — and the rounds repeat until count are kept. A round draws
// only as many queries as are outstanding, which a loop labeling each query
// before drawing the next would have drawn too: the RNG is consumed identically, the set is the one
// that loop returns for every worker count, and a longer run has a shorter
// run as its prefix.
func generate(db *table.DB, count int, draw func() (*sqlparse.Query, error)) (Set, error) {
	out := make(Set, 0, count)
	budget := maxAttemptFactor*count + 1
	for len(out) < count {
		n := min(count-len(out), budget)
		if n == 0 {
			return nil, errTooManyRejects
		}
		budget -= n
		qs := make([]*sqlparse.Query, n)
		for i := range qs {
			q, err := draw()
			if err != nil {
				return nil, err
			}
			if err := exec.Bind(q, db); err != nil {
				return nil, err
			}
			qs[i] = q
		}
		cards, err := exec.CountManyCtx(context.Background(), db, qs)
		if err != nil {
			return nil, err
		}
		for i, q := range qs {
			if cards[i] > 0 {
				out = append(out, Labeled{Query: q, Card: cards[i]})
			}
		}
	}
	return out, nil
}

// singleDB wraps one table as a DB for the executor.
func singleDB(t *table.Table) *table.DB {
	db := table.NewDB()
	db.MustAdd(t)
	return db
}

// maxAttemptFactor bounds the generate-and-reject loop: generators give up
// after this many draws per requested query (and one more), so impossible
// configurations fail with an error instead of spinning.
const maxAttemptFactor = 50

var errTooManyRejects = fmt.Errorf("workload: too many empty-result rejects; check generator configuration")

func pickDistinctAttrs(rng *rand.Rand, names []string, k int) []string {
	perm := rng.Perm(len(names))
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = names[perm[i]]
	}
	return out
}
