package sqlparse

import "unsafe"

// Arena holds the queries parsed into it until Reset. A parse through an
// arena runs the one parser Parse runs and builds the same AST, but carves
// what Parse allocates fresh — the Query and its table list, the slab of
// predicate leaves, each AND/OR node and its Kids — from chunks the arena
// keeps, so a caller that parses many short-lived queries makes no garbage
// for them once its arena has grown to its traffic. The daemon parses each
// request's queries into an arena the request owns.
//
// The memory is the arena's: a query parsed into it, and every node reached
// from it, is valid until the next Reset and must not be kept past it.
// Whatever must outlive the arena — a journal record, a cached entry — is
// Parse's, or a Clone. The names and string literals of an arena query are,
// as with Parse, substrings of the source, which the arena does not own.
//
// The zero value is ready to use. An arena is not safe for concurrent use;
// its queries may be read concurrently.
type Arena struct {
	queries slab[Query]
	tables  slab[string]
	preds   slab[Pred]
	kids    slab[Expr]
	ands    slab[And]
	ors     slab[Or]
}

// Parse parses src as sqlparse.Parse does, into a's memory: the query lives
// until a.Reset.
func (a *Arena) Parse(src string) (*Query, error) { return parse(a, src) }

// Reset ends the life of every query parsed into a and keeps its memory for
// the next parses. It zeroes what they used, so an idle arena pins no source
// text, and merges the chunks one round of parses grew into one, so the next
// round like it carves from a single chunk.
func (a *Arena) Reset() {
	a.queries.reset()
	a.tables.reset()
	a.preds.reset()
	a.kids.reset()
	a.ands.reset()
	a.ors.reset()
}

// Size is the memory a holds in bytes, used or not: what keeping it around
// keeps alive.
func (a *Arena) Size() int {
	return a.queries.size() + a.tables.size() + a.preds.size() + a.kids.size() + a.ands.size() + a.ors.size()
}

// minChunk is the fewest elements a slab's chunk holds.
const minChunk = 8

// slab hands out runs of zero Ts carved from chunks it keeps until reset. A
// chunk never moves once carved from: a full one is set aside and a new one,
// twice the size, is started.
type slab[T any] struct {
	cur  []T   // the chunk being carved; cur[len(cur):cap(cur)] is zero
	full [][]T // the chunks carved before cur since the last reset
}

// carve returns n zero Ts whose capacity is n, so appending to them cannot
// reach a neighbour's.
func (s *slab[T]) carve(n int) []T {
	if cap(s.cur)-len(s.cur) < n {
		if len(s.cur) > 0 {
			s.full = append(s.full, s.cur)
		}
		s.cur = make([]T, 0, max(n, 2*cap(s.cur), minChunk))
	}
	lo := len(s.cur)
	s.cur = s.cur[:lo+n]
	return s.cur[lo : lo+n : lo+n]
}

func (s *slab[T]) reset() {
	if len(s.full) > 0 {
		s.cur, s.full = make([]T, 0, s.capacity()), nil
		return
	}
	clear(s.cur)
	s.cur = s.cur[:0]
}

// capacity is the elements s holds across its chunks.
func (s *slab[T]) capacity() int {
	n := cap(s.cur)
	for _, c := range s.full {
		n += cap(c)
	}
	return n
}

func (s *slab[T]) size() int {
	var zero T
	return s.capacity() * int(unsafe.Sizeof(zero))
}
