// Package table implements the in-memory column store that underlies the
// reproduction: typed columns, per-attribute statistics (min, max, distinct
// count, equi-width histogram), per-column value dictionaries (the distinct
// values in order, with the rows carrying each), bitmap selection vectors,
// and CSV import/export.
//
// A column is analyzed once, when it is constructed: one sort of its rows
// yields its value dictionary, and its ANALYZE record is read off that — the
// min/max domain the QFTs read (Sections 2.1.1 and 3.2), the distinct count
// and histogram of the Section 5.2 baseline. The column is immutable after,
// so every reader reads the record and the dictionary without a lock.
// Estimating reads nothing but the record, so a database that is done
// counting can free its rows (DB.DropRows) and keep serving from the
// statistics, as an optimizer does. All attribute values are stored as
// int64: the paper's formulas use integer-domain semantics (domain size
// max(A)-min(A)+1), decimal attributes are handled by fixed-point scaling at
// load time, and string attributes by dictionary encoding (Section 6
// discusses the string extension implemented in internal/core).
package table

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// histogramBuckets is the resolution of a column's equi-width histogram:
// PostgreSQL's default_statistics_target.
const histogramBuckets = 100

// Column is a typed, fully materialized attribute of a table. It is analyzed
// when NewColumn or NewStringColumn constructs it and immutable after, Vals
// included; DB.DropRows, which frees its rows, is its one mutation.
type Column struct {
	Name string
	// Vals holds the attribute value of every row.
	Vals []int64

	// Dict, when non-nil, marks the column as dictionary-encoded: Vals[i]
	// indexes into Dict. The dictionary is sorted so that code order equals
	// lexicographic order, which keeps range predicates meaningful
	// (Section 6, "String predicates").
	Dict []string

	stats stats
	dict  *Dictionary // nil once DB.DropRows has freed it

	// dropped names the table whose rows DB.DropRows freed, "" while the
	// column holds them.
	dropped string
}

// stats is a column's ANALYZE record, all that estimating reads of it.
type stats struct {
	min, max       int64
	rows, distinct int
	hist           []int64 // rows in each of min(histogramBuckets, max-min+1) equal buckets over [min, max]
}

// NewColumn returns a column with the given name and values, analyzed. vals
// must not be changed afterwards.
func NewColumn(name string, vals []int64) *Column {
	d := buildDictionary(vals)
	return &Column{Name: name, Vals: vals, stats: analyze(d), dict: d}
}

// analyze reads a column's ANALYZE record off its value dictionary: min and
// max are its first and last value, the distinct count its length, and each
// value's rows go to the histogram bucket that holds it. An empty column's
// record is all zeros.
func analyze(d *Dictionary) stats {
	n := len(d.Values)
	if n == 0 {
		return stats{}
	}
	mn, mx := d.Values[0], d.Values[n-1]
	span := uint64(mx - mn) // max-min, exact where the int64 difference is not
	b := min(span, histogramBuckets-1) + 1
	hist := make([]int64, b)
	for c, v := range d.Values {
		hist[bucketOf(uint64(v-mn), span, b)] += int64(d.Offsets[c+1] - d.Offsets[c])
	}
	return stats{min: mn, max: mx, rows: len(d.Rows), distinct: n, hist: hist}
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
	c := NewColumn(name, enc)
	c.Dict = dict
	return c
}

// Len returns the number of rows, which the record keeps when DB.DropRows
// frees them.
func (c *Column) Len() int { return c.stats.rows }

// analyzed returns the column's record. It panics on an empty column, which
// has no minimum, maximum or histogram.
func (c *Column) analyzed() *stats {
	if c.stats.rows == 0 {
		panic(fmt.Sprintf("table: column %q is empty", c.Name))
	}
	return &c.stats
}

// Min returns the minimum value in the column. It panics on empty columns.
func (c *Column) Min() int64 { return c.analyzed().min }

// Max returns the maximum value in the column. It panics on empty columns.
func (c *Column) Max() int64 { return c.analyzed().max }

// DomainSize returns max-min+1, the integer domain size the QFT formulas
// divide by (Algorithm 1, line 4).
func (c *Column) DomainSize() int64 { s := c.analyzed(); return s.max - s.min + 1 }

// Distinct returns the number of distinct values in the column.
func (c *Column) Distinct() int { return c.analyzed().distinct }

// FractionLE returns the estimated fraction of the column's rows with value
// <= v: the rows of the histogram buckets below v's, plus v's bucket's rows
// taken as spread evenly over the values it covers (PostgreSQL's
// scalarineqsel).
func (c *Column) FractionLE(v int64) float64 {
	s := c.analyzed()
	if v < s.min {
		return 0
	}
	if v >= s.max {
		return 1
	}
	i, lo, hi := s.bucket(v)
	var below int64
	for _, n := range s.hist[:i] {
		below += n
	}
	frac := 1.0
	if hi > lo {
		frac = float64(v-lo+1) / float64(hi-lo+1)
	}
	return (float64(below) + frac*float64(s.hist[i])) / float64(s.rows)
}

// bucket returns the histogram bucket i that holds v and the values [lo, hi]
// it covers. The column must not be empty and min <= v <= max. Bucket i of b
// starts at min + ceil(i*(max-min+1)/b), taken in 128 bits so that any int64
// domain is exact.
func (s *stats) bucket(v int64) (i int, lo, hi int64) {
	span, b := uint64(s.max-s.min), uint64(len(s.hist))
	i = bucketOf(uint64(v-s.min), span, b)
	// The offsets are mod 2^64; adding them to min wraps back into [min, max].
	start := func(k int) int64 { return s.min + int64(bucketStart(uint64(k), span, b)) }
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

func droppedError(table, col string) error {
	return fmt.Errorf("table %s: column %q: rows were dropped (DB.DropRows); only the statistics remain", table, col)
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

// ColumnIndex returns the position of the named column in definition order,
// or -1 when absent.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.idx[name]; ok {
		return i
	}
	return -1
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

// DropRows frees every column's rows and value dictionary. What is left is
// the schema — names and the string dictionaries Bind resolves literals
// against — and each column's ANALYZE record, which is all that featurizing
// and the fallback estimators read: Len and NumRows answer from its row
// count. A daemon that has labelled its queries serves from this; for forest
// at 20 000 rows it is 2.5 MB of rows against ~13 kB of statistics. Whatever
// would read the rows afterwards fails loudly (CheckRows, Dictionary) rather
// than counting an empty table. It must not run concurrently with any reader
// of the database.
func (db *DB) DropRows() {
	for _, name := range db.order {
		t := db.tables[name]
		for _, c := range t.cols {
			c.Vals, c.dict, c.dropped = nil, nil, t.Name
		}
	}
}

// TableNames returns the table names in registration order.
func (db *DB) TableNames() []string { return append([]string(nil), db.order...) }
