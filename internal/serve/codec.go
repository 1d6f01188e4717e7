package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"qfe/internal/jsonenc"
	"qfe/internal/sqlparse"
)

// The wire codec of POST /v1/estimate. The endpoint's request and response
// schemas are fixed (estimateRequest, estimateResponse, errorResponse), so
// they are decoded and encoded by hand instead of through encoding/json's
// reflection: the body is read once into a pooled buffer, one pass over it
// fills the request, and the response is appended to a pooled buffer and
// written with one Write. encoding/json defines the behaviour — the decoder
// accepts what json.Decoder with DisallowUnknownFields accepts and yields
// the same request, the encoder's bytes equal json.Encoder's — and checks it:
// codec_test.go keeps it as the differential oracle. The two places where the
// decoder is deliberately stricter are listed on wireDecoder.decode.
//
// Buffer ownership: nothing a request hands onward may point into the pooled
// scratch. Each decoded "sql" and "model" is therefore copied once into a
// string of its own (the feedback hook's consumer, the journal queue, keeps
// FeedbackEvent.SQL and Query after the response is written); keys, numbers and escapes are read in place and copied nowhere.

// maxPooledBuf, maxPooledQueries and maxPooledArena bound what a pooled
// scratch may keep: a request that needed more (a body near maxBodyBytes, a
// batch near maxQueriesPerRequest, the ASTs of a batch of long queries)
// leaves its reqScratch to the garbage collector, so the pool's footprint is
// set by ordinary traffic and not by the largest request ever seen. A
// 64-query batch of cmd/bench's traffic grows its arena to about 0.2 MiB.
const (
	maxPooledBuf     = 128 << 10
	maxPooledQueries = 1024
	maxPooledArena   = 512 << 10
)

// reqScratch is everything one /v1/estimate request needs besides the values
// it hands onward: the body, the decoder's unescape buffer, the rendered
// response, the cache's key hasher, the one-item batch a single query is
// answered as, the per-item slices of a batch, and
// the arena its queries are parsed into when the server has no Feedback hook
// (parseAndBind). While pooled, every slice has length zero and holds only
// zero values up to its capacity, and the arena is reset.
type reqScratch struct {
	body   bytes.Buffer
	dec    wireDecoder
	resp   []byte
	hasher keyHasher
	arena  sqlparse.Arena
	single [1]estimateItem // a single query, as a batch of one

	results []estimateResult  // per item of the batch, in request order
	idx     []int             // the items that got an answer: j is item idx[j]
	qs      []*sqlparse.Query // j's query; nil when a cache hit spared the parse
	keys    []cacheKey        // j's cache key; zero without a cache
	out     []EstResult       // j's outcome
	missQ   []*sqlparse.Query // the qs the cache did not answer
	missIdx []int             // missQ[k] is qs[missIdx[k]]
	missOut []EstResult       // outcome of missQ[k]
}

var scratchPool = sync.Pool{New: func() any { return new(reqScratch) }}

// release returns sc to the pool, unless the request grew it past the caps.
// It zeroes what the request used, so a pooled scratch pins no query, SQL
// text or error string; resetting the arena ends the life of the request's
// queries.
func (sc *reqScratch) release() {
	if sc.body.Cap() > maxPooledBuf || cap(sc.dec.text) > maxPooledBuf || cap(sc.resp) > maxPooledBuf || cap(sc.results) > maxPooledQueries ||
		sc.arena.Size() > maxPooledArena {
		return
	}
	sc.body.Reset()
	sc.arena.Reset()
	sc.dec.data = nil
	sc.single = [1]estimateItem{}
	sc.results, sc.qs, sc.out = emptied(sc.results), emptied(sc.qs), emptied(sc.out)
	sc.missQ, sc.missOut = emptied(sc.missQ), emptied(sc.missOut)
	sc.idx, sc.keys, sc.missIdx = sc.idx[:0], sc.keys[:0], sc.missIdx[:0]
	scratchPool.Put(sc)
}

// emptied zeroes what s holds and returns it with length zero.
func emptied[T any](s []T) []T {
	clear(s)
	return s[:0]
}

// zeroed returns s with length n and every element zero, given that s is a
// scratch slice (zero up to its capacity).
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ---- decoding ----

// wireDecoder reads one estimateRequest from a complete body. Its zero value
// is ready to use; text is the only state kept between bodies.
type wireDecoder struct {
	data []byte
	off  int
	text []byte // unescaped form of the string being read, when it has one
}

// plainEnd returns the offset of the first byte at or after i that a JSON
// string literal does not carry as itself — a quote, a backslash, a control
// character or a byte above ASCII — or len(data). It tests eight bytes at a
// time (special).
func plainEnd(data []byte, i int) int {
	for ; i+8 <= len(data); i += 8 {
		if m := special(binary.LittleEndian.Uint64(data[i:])); m != 0 {
			return i + bits.TrailingZeros64(m)/8
		}
	}
	for ; i < len(data); i++ {
		if c := data[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' {
			return i
		}
	}
	return i
}

// special sets the high bit of each byte of the little-endian word w that
// plainEnd stops at, and of no byte below the first such one: (x-ones)&^x
// flags x's zero bytes, (w-0x20·ones)&^w the bytes below 0x20, w itself the
// bytes above ASCII, and a borrow can only flag a byte above one truly
// flagged. So the lowest set bit marks the first byte to stop at.
func special(w uint64) uint64 {
	const (
		ones  = 0x0101010101010101
		highs = 0x8080808080808080
	)
	q, b := w^('"'*ones), w^('\\'*ones)
	return ((q-ones)&^q | (b-ones)&^b | (w-0x20*ones)&^w | w) & highs
}

// unhex maps a hex digit to its value and every other byte to 0xff.
var unhex = func() (t [256]byte) {
	for c := range t {
		t[c] = 0xff
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = byte(c - '0')
	}
	for c := 'a'; c <= 'f'; c++ {
		t[c] = byte(c - 'a' + 10)
		t[c-'a'+'A'] = byte(c - 'a' + 10)
	}
	return t
}()

// decode fills req from data, which must hold exactly one JSON value — an
// object with the fields of estimateRequest, or null — and nothing else but
// white space. It accepts what json.Decoder with DisallowUnknownFields
// accepts and leaves req as that would (a repeated key merges as it does
// there, null leaves a string or number untouched and empties a pointer or
// slice, invalid UTF-8 and lone surrogates become U+FFFD), except that it
// rejects two things encoding/json lets through:
//
//   - anything but white space after the value, which a json.Decoder leaves
//     unread for a next Decode that the handler never issued;
//   - a key that matches a field only when letter case is ignored ("SQL",
//     "Timeoutms"); here such a key is an unknown field.
func (d *wireDecoder) decode(data []byte, req *estimateRequest) error {
	d.data, d.off = data, 0
	d.skipSpace()
	switch {
	case d.peek() == '{':
		if err := d.object(func(key []byte) error { return d.requestField(req, key) }); err != nil {
			return err
		}
	case d.null():
	default:
		return d.unexpected("a JSON object")
	}
	d.skipSpace()
	if d.off < len(d.data) {
		return d.unexpected("the end of the body")
	}
	return nil
}

func (d *wireDecoder) requestField(req *estimateRequest, key []byte) error {
	switch string(key) {
	case "model":
		return d.stringValue(&req.Model, `a string for "model"`)
	case "timeoutMs":
		if d.null() {
			return nil
		}
		lit := d.number()
		if lit == nil {
			return d.unexpected(`a number for "timeoutMs"`)
		}
		v, err := strconv.ParseInt(string(lit), 10, 64)
		if err != nil {
			return fmt.Errorf(`"timeoutMs" must be a 64-bit integer, not %s`, lit)
		}
		req.TimeoutMS = v
		return nil
	case "sql":
		return d.stringValue(&req.SQL, `a string for "sql"`)
	case "actual":
		return d.floatValue(&req.Actual)
	case "queries":
		return d.queries(&req.Queries)
	}
	return fmt.Errorf("unknown field %q", key)
}

// queries reads the "queries" array the way encoding/json fills a slice:
// element i is decoded into the slot a previous "queries" key of the same
// body left there, if any, so repeated keys merge item by item.
func (d *wireDecoder) queries(dst *[]estimateItem) error {
	if d.null() {
		*dst = nil
		return nil
	}
	if d.peek() != '[' {
		return d.unexpected(`an array for "queries"`)
	}
	d.off++
	items := *dst
	n := 0
	d.skipSpace()
	if d.peek() == ']' {
		d.off++
		*dst = []estimateItem{}
		return nil
	}
	for {
		switch {
		case n < len(items):
		case n < cap(items):
			items = items[:n+1]
		default:
			items = append(items, estimateItem{})
		}
		item := &items[n]
		n++
		switch {
		case d.peek() == '{':
			if err := d.object(func(key []byte) error { return d.itemField(item, key) }); err != nil {
				return err
			}
		case d.null():
		default:
			return d.unexpected(`an object in "queries"`)
		}
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.off++
			d.skipSpace()
		case ']':
			d.off++
			*dst = items[:n]
			return nil
		default:
			return d.unexpected(`"," or "]"`)
		}
	}
}

func (d *wireDecoder) itemField(item *estimateItem, key []byte) error {
	switch string(key) {
	case "sql":
		return d.stringValue(&item.SQL, `a string for "sql"`)
	case "actual":
		return d.floatValue(&item.Actual)
	}
	return fmt.Errorf("unknown field %q in a query", key)
}

// object walks the object at d.off, calling field with each unescaped key
// and d.off at that key's value. key is valid until field reads a string.
func (d *wireDecoder) object(field func(key []byte) error) error {
	d.off++ // '{'
	d.skipSpace()
	if d.peek() == '}' {
		d.off++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.unexpected("a field name")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		d.skipSpace()
		if d.peek() != ':' {
			return d.unexpected(`":"`)
		}
		d.off++
		d.skipSpace()
		if err := field(key); err != nil {
			return err
		}
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.off++
			d.skipSpace()
		case '}':
			d.off++
			return nil
		default:
			return d.unexpected(`"," or "}"`)
		}
	}
}

// stringValue reads a string into a copy the request owns; null leaves *dst
// as it is. want names the value in the error for anything else.
func (d *wireDecoder) stringValue(dst *string, want string) error {
	if d.null() {
		return nil
	}
	if d.peek() != '"' {
		return d.unexpected(want)
	}
	s, err := d.str()
	if err != nil {
		return err
	}
	*dst = string(s)
	return nil
}

// floatValue reads "actual": a number, or null for none.
func (d *wireDecoder) floatValue(dst **float64) error {
	if d.null() {
		*dst = nil
		return nil
	}
	lit := d.number()
	if lit == nil {
		return d.unexpected(`a number for "actual"`)
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return fmt.Errorf(`"actual" must be a 64-bit float, not %s`, lit)
	}
	*dst = &v
	return nil
}

func (d *wireDecoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0 // not a byte any caller accepts
}

func (d *wireDecoder) skipSpace() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\r', '\n':
			d.off++
		default:
			return
		}
	}
}

// null consumes the literal null if it is next.
func (d *wireDecoder) null() bool {
	if string(d.data[d.off:min(d.off+4, len(d.data))]) == "null" {
		d.off += 4
		return true
	}
	return false
}

// unexpected reports the byte at d.off (or the end of the body) where want
// was required.
func (d *wireDecoder) unexpected(want string) error {
	if d.off >= len(d.data) {
		return fmt.Errorf("unexpected end of body, want %s", want)
	}
	r, _ := utf8.DecodeRune(d.data[d.off:])
	return fmt.Errorf("unexpected %q at offset %d, want %s", r, d.off, want)
}

// number consumes a JSON number literal and returns its text; what follows
// it is the caller's to judge. Where the grammar breaks it returns nil, with
// d.off at the byte that broke it.
func (d *wireDecoder) number() []byte {
	data, start := d.data, d.off
	digits := func() bool {
		from := d.off
		for d.off < len(data) && '0' <= data[d.off] && data[d.off] <= '9' {
			d.off++
		}
		return d.off > from
	}
	if d.peek() == '-' {
		d.off++
	}
	if d.peek() == '0' {
		d.off++
	} else if !digits() {
		return nil
	}
	if d.peek() == '.' {
		d.off++
		if !digits() {
			return nil
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.off++
		if c := d.peek(); c == '+' || c == '-' {
			d.off++
		}
		if !digits() {
			return nil
		}
	}
	return data[start:d.off]
}

// str consumes the string literal whose opening quote is at d.off and
// returns its value: a slice of the body when the literal has no escape and
// no byte above ASCII, else the unescaped bytes in d.text. Either way the
// result is only valid until the next call.
func (d *wireDecoder) str() ([]byte, error) {
	data := d.data
	start := d.off + 1
	i := plainEnd(data, start)
	if i < len(data) && data[i] == '"' {
		d.off = i + 1
		return data[start:i], nil
	}
	out := append(d.text[:0], data[start:i]...)
	for i < len(data) {
		switch c := data[i]; {
		case c == '"':
			d.off, d.text = i+1, out
			return out, nil
		case c == '\\':
			// An ASCII \u00XX, as encoding/json writes every < > & in a
			// string, is its byte.
			if i+6 <= len(data) && binary.LittleEndian.Uint32(data[i:]) == '\\'|'u'<<8|'0'<<16|'0'<<24 {
				if hi, lo := unhex[data[i+4]], unhex[data[i+5]]; hi < 8 && lo < 16 {
					out = append(out, hi<<4|lo)
					i += 6
					break
				}
			}
			i++
			if i >= len(data) {
				continue // the loop ends: unterminated
			}
			switch c := data[i]; c {
			case '"', '\\', '/':
				out = append(out, c)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(data[i+1:])
				if r < 0 {
					d.off = i - 1
					return nil, fmt.Errorf(`invalid \u escape at offset %d`, d.off)
				}
				i += 4
				if utf16.IsSurrogate(r) {
					// A high surrogate takes the low one that follows it; a
					// surrogate without its partner is U+FFFD, and what
					// follows is read on its own.
					r2 := rune(-1)
					if i+2 < len(data) && data[i+1] == '\\' && data[i+2] == 'u' {
						r2 = hex4(data[i+3:])
					}
					if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
						i += 6
					}
				}
				out = utf8.AppendRune(out, r)
			default:
				d.off = i
				return nil, d.unexpected("an escape character")
			}
			i++
		case c < 0x20:
			d.off = i
			return nil, fmt.Errorf("control character %q in a string at offset %d", c, i)
		default:
			// Above ASCII: a well-formed sequence is kept, any other byte
			// becomes U+FFFD.
			r, size := utf8.DecodeRune(data[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
		// The plain run up to the next byte to decode; escapes often come
		// in pairs ("\u003c\u003e"), with no run between them.
		if i < len(data) && data[i] != '\\' {
			j := plainEnd(data, i)
			out = append(out, data[i:j]...)
			i = j
		}
	}
	d.off, d.text = len(data), out
	return nil, fmt.Errorf("unterminated string starting at offset %d", start-1)
}

// hex4 decodes the four hex digits b starts with, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	h0, h1, h2, h3 := unhex[b[0]], unhex[b[1]], unhex[b[2]], unhex[b[3]]
	if h0|h1|h2|h3 > 15 {
		return -1
	}
	return rune(h0)<<12 | rune(h1)<<8 | rune(h2)<<4 | rune(h3)
}

// ---- encoding ----

// appendEstimateResponse appends resp as json.Encoder renders it — field
// order, omitempty, number and string formatting, the trailing newline. Like
// json.Encoder it renders nothing for an estimate that is NaN or infinite,
// which it reports as false.
func appendEstimateResponse(dst []byte, resp *estimateResponse) ([]byte, bool) {
	dst = append(dst, `{"model":`...)
	dst = jsonenc.String(dst, resp.Model)
	dst = append(dst, ',')
	dst, ok := appendResultFields(dst, &resp.estimateResult)
	if len(resp.Results) > 0 {
		dst = append(dst, `,"results":[`...)
		for i := range resp.Results {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '{')
			var itemOK bool
			dst, itemOK = appendResultFields(dst, &resp.Results[i])
			ok = ok && itemOK
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, "}\n"...), ok
}

// appendResultFields appends the members of one estimateResult, without the
// braces: "micros" is always present, so the optional fields before it end
// in a comma and the one after it starts with one.
func appendResultFields(dst []byte, r *estimateResult) ([]byte, bool) {
	ok := true
	if r.Estimate != 0 {
		if math.IsNaN(r.Estimate) || math.IsInf(r.Estimate, 0) {
			ok = false
		}
		dst = append(dst, `"estimate":`...)
		dst = jsonenc.Float(dst, r.Estimate)
		dst = append(dst, ',')
	}
	if r.Stage != "" {
		dst = append(dst, `"stage":`...)
		dst = jsonenc.String(dst, r.Stage)
		dst = append(dst, ',')
	}
	if r.Degraded {
		dst = append(dst, `"degraded":true,`...)
	}
	dst = append(dst, `"micros":`...)
	dst = strconv.AppendInt(dst, r.Micros, 10)
	if r.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = jsonenc.String(dst, r.Error)
	}
	return dst, ok
}

// appendErrorResponse appends errorResponse{Error: msg} as json.Encoder
// renders it.
func appendErrorResponse(dst []byte, msg string) []byte {
	dst = append(dst, `{"error":`...)
	dst = jsonenc.String(dst, msg)
	return append(dst, "}\n"...)
}

// ---- writing ----

// jsonContentType is the Content-Type value every response of this package
// shares; net/http only reads header values.
var jsonContentType = []string{"application/json"}

// writeWire sends an already rendered JSON body.
func writeWire(w http.ResponseWriter, code int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	w.Write(body) //nolint:errcheck // client went away
}

// writeEstimate renders resp into sc and sends it. A response json.Encoder
// would have refused (a NaN or infinite estimate) goes out as it did then:
// the status line and no body.
func writeEstimate(w http.ResponseWriter, sc *reqScratch, code int, resp *estimateResponse) {
	var ok bool
	sc.resp, ok = appendEstimateResponse(sc.resp[:0], resp)
	if !ok {
		sc.resp = sc.resp[:0]
	}
	writeWire(w, code, sc.resp)
}
