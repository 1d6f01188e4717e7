// Package table implements the in-memory column store that underlies the
// reproduction: typed columns, per-attribute statistics (min, max, distinct
// count, equi-width histogram), per-column value dictionaries (the distinct
// values in order, with the rows carrying each), bitmap selection vectors,
// and CSV import/export.
//
// A column's statistics are its one ANALYZE, gathered lazily in one pass: the
// QFTs read its min/max domain (Sections 2.1.1 and 3.2), the Section 5.2
// baseline its distinct count and histogram. Estimating reads nothing else,
// so a database that is done counting can free its rows (DB.DropRows) and
// keep serving from the statistics, as an optimizer does. All attribute
// values are stored as int64: the paper's formulas use integer-domain
// semantics (domain size max(A)-min(A)+1), decimal attributes are handled by
// fixed-point scaling at load time, and string attributes by dictionary
// encoding (Section 6 discusses the string extension implemented in
// internal/core).
package table

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
)

// histogramBuckets is the resolution of a column's equi-width histogram:
// PostgreSQL's default_statistics_target.
const histogramBuckets = 100

// Column is a typed, fully materialized attribute of a table.
type Column struct {
	Name string
	// Vals holds the attribute value of every row.
	Vals []int64

	// Dict, when non-nil, marks the column as dictionary-encoded: Vals[i]
	// indexes into Dict. The dictionary is sorted so that code order equals
	// lexicographic order, which keeps range predicates meaningful
	// (Section 6, "String predicates").
	Dict []string

	// statsMu guards the lazily computed statistics and the lazily built
	// value dictionary below, making their accessors safe under concurrent
	// readers (parallel labeling and training read Min/Max/Distinct and
	// Dictionary from many goroutines, concurrent estimates FractionLE).
	// Mutating Vals or calling InvalidateStats concurrently with readers
	// remains the caller's responsibility to serialize.
	statsMu        sync.Mutex
	statsValid     bool
	min, max       int64
	rows, distinct int
	hist           []int64     // rows in each of min(histogramBuckets, max-min+1) equal buckets over [min, max]
	dict           *Dictionary // nil until Dictionary builds it

	// dropped names the table whose rows DB.DropRows freed, "" while the
	// column holds them.
	dropped string
}

// NewColumn returns a column with the given name and values.
func NewColumn(name string, vals []int64) *Column {
	return &Column{Name: name, Vals: vals}
}

// NewStringColumn dictionary-encodes vals into a column. The dictionary is
// sorted lexicographically, so the resulting integer codes preserve string
// order.
func NewStringColumn(name string, vals []string) *Column {
	uniq := make(map[string]struct{}, len(vals))
	for _, v := range vals {
		uniq[v] = struct{}{}
	}
	dict := make([]string, 0, len(uniq))
	for v := range uniq {
		dict = append(dict, v)
	}
	sort.Strings(dict)
	code := make(map[string]int64, len(dict))
	for i, v := range dict {
		code[v] = int64(i)
	}
	enc := make([]int64, len(vals))
	for i, v := range vals {
		enc[i] = code[v]
	}
	return &Column{Name: name, Vals: enc, Dict: dict}
}

// Len returns the number of rows: len(Vals), and once DB.DropRows has freed
// them, the row count of the statistics.
func (c *Column) Len() int {
	if c.Vals == nil {
		return c.rows
	}
	return len(c.Vals)
}

// Min returns the minimum value in the column. It panics on empty columns.
func (c *Column) Min() int64 { c.ensureStats(); return c.min }

// Max returns the maximum value in the column. It panics on empty columns.
func (c *Column) Max() int64 { c.ensureStats(); return c.max }

// DomainSize returns max-min+1, the integer domain size the QFT formulas
// divide by (Algorithm 1, line 4).
func (c *Column) DomainSize() int64 { c.ensureStats(); return c.max - c.min + 1 }

// Distinct returns the number of distinct values in the column.
func (c *Column) Distinct() int { c.ensureStats(); return c.distinct }

// FractionLE returns the estimated fraction of the column's rows with value
// <= v: the rows of the histogram buckets below v's, plus v's bucket's rows
// taken as spread evenly over the values it covers (PostgreSQL's
// scalarineqsel).
func (c *Column) FractionLE(v int64) float64 {
	c.ensureStats()
	if v < c.min {
		return 0
	}
	if v >= c.max {
		return 1
	}
	i, lo, hi := c.bucket(v)
	var below int64
	for _, n := range c.hist[:i] {
		below += n
	}
	frac := 1.0
	if hi > lo {
		frac = float64(v-lo+1) / float64(hi-lo+1)
	}
	return (float64(below) + frac*float64(c.hist[i])) / float64(c.rows)
}

// bucket returns the histogram bucket i that holds v and the values [lo, hi]
// it covers. The statistics must be gathered and min <= v <= max. Bucket i of
// b starts at min + ceil(i*(max-min+1)/b), taken in 128 bits so that any
// int64 domain is exact.
func (c *Column) bucket(v int64) (i int, lo, hi int64) {
	span, b := uint64(c.max-c.min), uint64(len(c.hist))
	i = bucketOf(uint64(v-c.min), span, b)
	// The offsets are mod 2^64; adding them to min wraps back into [min, max].
	start := func(k int) int64 { return c.min + int64(bucketStart(uint64(k), span, b)) }
	return i, start(i), start(i+1) - 1
}

// bucketOf returns floor(off*b/(span+1)): which of b equal buckets over a
// domain of span+1 values holds the value off above its minimum.
func bucketOf(off, span, b uint64) int {
	hi, lo := bits.Mul64(off, b)
	if span == math.MaxUint64 { // a domain of 2^64: the quotient is hi
		return int(hi)
	}
	q, _ := bits.Div64(hi, lo, span+1)
	return int(q)
}

// bucketStart returns ceil(i*(span+1)/b) mod 2^64, the offset of bucket i's
// first value (of bucket b: one past the maximum).
func bucketStart(i, span, b uint64) uint64 {
	if i == b {
		return span + 1
	}
	hi, lo := i, uint64(0) // i * 2^64
	if span != math.MaxUint64 {
		hi, lo = bits.Mul64(i, span+1)
	}
	q, r := bits.Div64(hi, lo, b)
	if r != 0 {
		q++
	}
	return q
}

// Decode returns the string for a dictionary code; for plain integer columns
// it formats the value.
func (c *Column) Decode(v int64) string {
	if c.Dict != nil && v >= 0 && int(v) < len(c.Dict) {
		return c.Dict[int(v)]
	}
	return fmt.Sprintf("%d", v)
}

// InvalidateStats forces the statistics, histogram included, and the value
// dictionary to be recomputed on next access. Call it after mutating Vals
// (e.g. when simulating data drift): everything the executor counts, it
// counts on the dictionary. It panics once DB.DropRows has freed the rows:
// statistics gathered again would describe an empty column.
func (c *Column) InvalidateStats() {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	c.mustHoldRows()
	c.statsValid = false
	c.dict = nil
}

// mustHoldRows panics, naming the table, when DB.DropRows has freed the
// column's rows: a read of them would see an empty column and count or weigh
// nothing. The stats mutex must be held.
func (c *Column) mustHoldRows() {
	if c.dropped != "" {
		panic(droppedError(c.dropped, c.Name))
	}
}

func droppedError(table, col string) error {
	return fmt.Errorf("table %s: column %q: rows were dropped (DB.DropRows); only the statistics remain", table, col)
}

func (c *Column) ensureStats() {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	if c.statsValid {
		return
	}
	if len(c.Vals) == 0 {
		panic(fmt.Sprintf("table: column %q is empty", c.Name))
	}
	mn, mx := c.Vals[0], c.Vals[0]
	seen := make(map[int64]struct{}, 64)
	for _, v := range c.Vals {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
		seen[v] = struct{}{}
	}
	span := uint64(mx - mn) // max-min, exact where the int64 difference is not
	b := min(span, histogramBuckets-1) + 1
	hist := make([]int64, b)
	for _, v := range c.Vals {
		hist[bucketOf(uint64(v-mn), span, b)]++
	}
	c.min, c.max, c.rows, c.distinct, c.hist = mn, mx, len(c.Vals), len(seen), hist
	c.statsValid = true
}

// Table is a named collection of equal-length columns.
type Table struct {
	Name string
	cols []*Column
	idx  map[string]int
}

// New returns an empty table with the given name.
func New(name string) *Table {
	return &Table{Name: name, idx: make(map[string]int)}
}

// AddColumn appends col to the table. It returns an error when a column of
// the same name exists or when the column length disagrees with the table.
func (t *Table) AddColumn(col *Column) error {
	if _, dup := t.idx[col.Name]; dup {
		return fmt.Errorf("table %s: duplicate column %q", t.Name, col.Name)
	}
	if len(t.cols) > 0 && col.Len() != t.NumRows() {
		return fmt.Errorf("table %s: column %q has %d rows, want %d",
			t.Name, col.Name, col.Len(), t.NumRows())
	}
	t.idx[col.Name] = len(t.cols)
	t.cols = append(t.cols, col)
	return nil
}

// MustAddColumn is AddColumn but panics on error; intended for generators
// and tests where the schema is static.
func (t *Table) MustAddColumn(col *Column) {
	if err := t.AddColumn(col); err != nil {
		panic(err)
	}
}

// Column returns the column with the given name, or nil when absent.
func (t *Table) Column(name string) *Column {
	if i, ok := t.idx[name]; ok {
		return t.cols[i]
	}
	return nil
}

// Columns returns the table's columns in definition order. The returned
// slice must not be mutated.
func (t *Table) Columns() []*Column { return t.cols }

// ColumnNames returns the column names in definition order.
func (t *Table) ColumnNames() []string {
	names := make([]string, len(t.cols))
	for i, c := range t.cols {
		names[i] = c.Name
	}
	return names
}

// NumRows returns the number of rows; 0 for a table without columns.
func (t *Table) NumRows() int {
	if len(t.cols) == 0 {
		return 0
	}
	return t.cols[0].Len()
}

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.cols) }

// CheckRows returns an error naming the table when DB.DropRows has freed its
// rows, nil while it holds them. What counts, weighs or writes rows asks
// first, so that a dropped table fails loudly instead of reading as empty.
func (t *Table) CheckRows() error {
	for _, c := range t.cols {
		if c.dropped != "" {
			return droppedError(t.Name, c.Name)
		}
	}
	return nil
}

// DB is a named collection of tables — the "data" component of the paper's
// Equation 1 that the estimators are trained against.
type DB struct {
	tables map[string]*Table
	order  []string
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: make(map[string]*Table)}
}

// Add registers t. It returns an error on duplicate table names.
func (db *DB) Add(t *Table) error {
	if _, dup := db.tables[t.Name]; dup {
		return fmt.Errorf("db: duplicate table %q", t.Name)
	}
	db.tables[t.Name] = t
	db.order = append(db.order, t.Name)
	return nil
}

// MustAdd is Add but panics on error.
func (db *DB) MustAdd(t *Table) {
	if err := db.Add(t); err != nil {
		panic(err)
	}
}

// Table returns the table with the given name, or nil when absent.
func (db *DB) Table(name string) *Table { return db.tables[name] }

// DropRows finishes every column's ANALYZE (min, max, row count, distinct
// count, histogram) and then frees its rows and its value dictionary. What is
// left is the schema — names and the string dictionaries Bind resolves
// literals against — and the statistics, which are all that featurizing and
// the fallback estimators read: Len and NumRows answer from the statistics'
// row count. A daemon that has labelled its queries serves from this; for
// forest at 20 000 rows it is 2.5 MB of rows against ~13 kB of statistics.
// Whatever would read the rows afterwards fails loudly (CheckRows,
// Dictionary, InvalidateStats) rather than counting an empty table. It must
// not run concurrently with any reader of the database.
func (db *DB) DropRows() {
	for _, name := range db.order {
		t := db.tables[name]
		for _, c := range t.cols {
			if len(c.Vals) > 0 {
				c.ensureStats()
			}
			c.statsMu.Lock()
			c.Vals, c.dict, c.dropped = nil, nil, t.Name
			c.statsMu.Unlock()
		}
	}
}

// TableNames returns the table names in registration order.
func (db *DB) TableNames() []string { return append([]string(nil), db.order...) }
