// Package table implements the in-memory column store that underlies the
// reproduction: typed columns, per-attribute statistics (min, max, distinct
// count), per-column value dictionaries (the distinct values in order, with
// the rows carrying each), bitmap selection vectors, and CSV import/export.
//
// The paper's QFTs are defined over attributes with known min/max domains
// (Sections 2.1.1 and 3.2); the statistics kept here are exactly the
// metadata a QFT needs. All attribute values are stored as int64: the
// paper's formulas use integer-domain semantics (domain size
// max(A)-min(A)+1), decimal attributes are handled by fixed-point scaling at
// load time, and string attributes by dictionary encoding (Section 6
// discusses the string extension implemented in internal/core).
package table

import (
	"fmt"
	"sort"
	"sync"
)

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
	// Dictionary from many goroutines). Mutating Vals or calling
	// InvalidateStats concurrently with readers remains the caller's
	// responsibility to serialize.
	statsMu    sync.Mutex
	statsValid bool
	min, max   int64
	distinct   int
	dict       *Dictionary // nil until Dictionary builds it
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

// Len returns the number of rows.
func (c *Column) Len() int { return len(c.Vals) }

// Min returns the minimum value in the column. It panics on empty columns.
func (c *Column) Min() int64 { c.ensureStats(); return c.min }

// Max returns the maximum value in the column. It panics on empty columns.
func (c *Column) Max() int64 { c.ensureStats(); return c.max }

// DomainSize returns max-min+1, the integer domain size the QFT formulas
// divide by (Algorithm 1, line 4).
func (c *Column) DomainSize() int64 { c.ensureStats(); return c.max - c.min + 1 }

// Distinct returns the number of distinct values in the column.
func (c *Column) Distinct() int { c.ensureStats(); return c.distinct }

// Decode returns the string for a dictionary code; for plain integer columns
// it formats the value.
func (c *Column) Decode(v int64) string {
	if c.Dict != nil && v >= 0 && int(v) < len(c.Dict) {
		return c.Dict[int(v)]
	}
	return fmt.Sprintf("%d", v)
}

// InvalidateStats forces the statistics and the value dictionary to be
// recomputed on next access. Call it after mutating Vals (e.g. when
// simulating data drift): everything the executor counts, it counts on the
// dictionary.
func (c *Column) InvalidateStats() {
	c.statsMu.Lock()
	c.statsValid = false
	c.dict = nil
	c.statsMu.Unlock()
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
	c.min, c.max, c.distinct = mn, mx, len(seen)
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

// TableNames returns the table names in registration order.
func (db *DB) TableNames() []string { return append([]string(nil), db.order...) }
