package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"qfe/internal/dataset"
	"qfe/internal/resilience"
	"qfe/internal/sqlparse"
	"qfe/internal/table"
	"qfe/internal/testutil"
	"qfe/internal/workload"
)

// ---- the oracle: encoding/json, as the handler used it before the codec ----

// errorResponse is the {"error": ...} shape appendErrorResponse renders.
type errorResponse struct {
	Error string `json:"error"`
}

func oracleDecode(body []byte) (estimateRequest, int64, error) {
	var req estimateRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, dec.InputOffset(), err
}

func oracleEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// stricterThanOracle reports whether body, which encoding/json decoded up to
// offset end, shows one of the two things the codec rejects on purpose:
// something other than white space after the value, or an object key that
// names a field only once letter case is ignored.
func stricterThanOracle(body []byte, end int64) bool {
	if strings.TrimLeft(string(body[end:]), " \t\r\n") != "" {
		return true
	}
	fields := []string{"model", "timeoutMs", "sql", "actual", "queries"}
	dec := json.NewDecoder(bytes.NewReader(body[:end]))
	var walk func() bool
	walk = func() bool {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		folded := false
		switch tok {
		case json.Delim('{'):
			for dec.More() {
				key, _ := dec.Token()
				for _, f := range fields {
					if k, ok := key.(string); ok && k != f && strings.EqualFold(k, f) {
						folded = true
					}
				}
				folded = walk() || folded
			}
			dec.Token() //nolint:errcheck // the closing brace of a value already decoded once
		case json.Delim('['):
			for dec.More() {
				folded = walk() || folded
			}
			dec.Token() //nolint:errcheck // the closing bracket
		}
		return folded
	}
	return walk()
}

// checkDecode holds the decoder to the oracle on one body: both fail, or
// both succeed with equal requests, or the codec alone fails for one of its
// two documented reasons. d is reused across calls, as a pooled one is.
func checkDecode(t testing.TB, d *wireDecoder, body []byte) {
	t.Helper()
	want, end, wantErr := oracleDecode(body)
	var got estimateRequest
	gotErr := d.decode(body, &got)
	switch {
	case gotErr == nil && wantErr != nil:
		t.Fatalf("body %q: the codec accepts (%+v) what encoding/json rejects: %v", body, got, wantErr)
	case gotErr != nil && wantErr == nil:
		if !stricterThanOracle(body, end) {
			t.Fatalf("body %q: the codec rejects (%v) what encoding/json accepts as %+v", body, gotErr, want)
		}
	case gotErr == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("body %q:\n codec %s\noracle %s", body, dumpRequest(got), dumpRequest(want))
	}
}

func dumpRequest(r estimateRequest) string {
	b, _ := json.Marshal(r)
	return fmt.Sprintf("%s (queries nil: %v)", b, r.Queries == nil)
}

// checkEncode holds the encoder to json.Encoder on one response and on the
// error shape of each of its strings.
func checkEncode(t testing.TB, resp estimateResponse) {
	t.Helper()
	want, err := oracleEncode(resp)
	got, ok := appendEstimateResponse([]byte("kept"), &resp)
	if ok != (err == nil) {
		t.Fatalf("response %+v: codec ok=%v, json.Encoder err=%v", resp, ok, err)
	}
	if ok && string(got) != "kept"+string(want) {
		t.Fatalf("response %+v:\n codec %q\noracle %q", resp, got[len("kept"):], want)
	}
	for _, msg := range []string{resp.Model, resp.Error} {
		want, _ := oracleEncode(errorResponse{Error: msg})
		if got := appendErrorResponse(nil, msg); !bytes.Equal(got, want) {
			t.Fatalf("error %q:\n codec %q\noracle %q", msg, got, want)
		}
	}
}

// ---- bodies as cmd/bench sends them ----

// benchBodies renders n single-query bodies (every other one carrying its
// true cardinality, as feedback-hot does) and one n-query batch the way
// cmd/bench does: mixed AND/OR queries over a forest table of the
// benchmark's shape, through json.Marshal — which escapes every < and > as
// \u003c and \u003e, so these strings take the decoder's unescaping path.
func benchBodies(tb testing.TB, n int) (db *table.DB, singles [][]byte, batch []byte) {
	tb.Helper()
	forest, err := dataset.Forest(dataset.ForestConfig{Rows: 2000, QuantAttrs: 12, BinaryAttrs: 4, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	db = table.NewDB()
	db.MustAdd(forest)
	set, err := workload.Mixed(forest, workload.MixedConfig{
		ConjConfig:  workload.ConjConfig{Count: n, MaxAttrs: 8, MaxNotEquals: 5, Seed: 1_000_004},
		MaxBranches: 3,
	})
	if err != nil {
		tb.Fatal(err)
	}
	var items []estimateItem
	for i, l := range set {
		item := estimateItem{SQL: l.Query.String()}
		if i%2 == 1 {
			card := float64(l.Card)
			item.Actual = &card
		}
		body, err := json.Marshal(estimateRequest{SQL: item.SQL, Actual: item.Actual})
		if err != nil {
			tb.Fatal(err)
		}
		singles = append(singles, body)
		items = append(items, item)
	}
	if batch, err = json.Marshal(estimateRequest{Queries: items}); err != nil {
		tb.Fatal(err)
	}
	return db, singles, batch
}

// ---- decoder ----

func TestDecodeMatchesOracle(t *testing.T) {
	bodies := []string{
		// Shapes and white space.
		`{"sql":"a"}`, " \t\r\n{ \"sql\" : \"a\" , \"timeoutMs\" : 5 } \n", `{}`, `null`, ` null `, ``, ` `,
		`{"model":"m","timeoutMs":250,"sql":"s","actual":12.5}`,
		`{"queries":[{"sql":"a"},{"sql":"b","actual":0},{"actual":3,"sql":"c"}]}`,
		`{"queries":[]}`, `{"queries":[ ]}`, `{"queries":null}`, `{"queries":[null]}`, `{"queries":[{}]}`,
		`{"queries":[{"sql":"a"},null,{"sql":"c"}]}`,
		// Null leaves strings and numbers alone, empties pointers and slices.
		`{"sql":"a","sql":null}`, `{"timeoutMs":7,"timeoutMs":null}`, `{"model":null}`,
		`{"actual":1,"actual":null}`, `{"actual":null,"actual":2}`,
		`{"queries":[{"sql":"a"}],"queries":null}`, `{"queries":null,"queries":[{"sql":"a"}]}`,
		// A repeated key: the last value wins, and a repeated array merges into
		// the slots the earlier one filled.
		`{"sql":"a","sql":"b"}`, `{"actual":1,"actual":2}`,
		`{"queries":[{"sql":"a","actual":1}],"queries":[{"sql":"b"}]}`,
		`{"queries":[{"sql":"a"},{"sql":"b","actual":2}],"queries":[{}],"queries":[{"actual":3},{},{"sql":"z"}]}`,
		`{"queries":[{"sql":"a"},{"sql":"b"}],"queries":[null]}`,
		`{"queries":[{"sql":"a"}],"queries":[]}`,
		`{"queries":[{"sql":"a","sql":"b","actual":1,"actual":null}]}`,
		// Numbers.
		`{"timeoutMs":0}`, `{"timeoutMs":-0}`, `{"timeoutMs":-12}`, `{"timeoutMs":9223372036854775807}`,
		`{"timeoutMs":9223372036854775808}`, `{"timeoutMs":1.0}`, `{"timeoutMs":1e2}`, `{"timeoutMs":01}`,
		`{"timeoutMs":+1}`, `{"timeoutMs":-}`, `{"timeoutMs":"5"}`, `{"timeoutMs":1 2}`,
		`{"actual":0}`, `{"actual":-0}`, `{"actual":-0.0}`, `{"actual":1e3}`, `{"actual":1E+3}`, `{"actual":1e-3}`,
		`{"actual":1.5e300}`, `{"actual":1e309}`, `{"actual":-1e309}`, `{"actual":1e-400}`, `{"actual":4.9e-324}`,
		`{"actual":0.1}`, `{"actual":1.}`, `{"actual":.5}`, `{"actual":1e}`, `{"actual":1e+}`, `{"actual":00}`,
		`{"actual":0x10}`, `{"actual":NaN}`, `{"actual":Infinity}`, `{"actual":"1"}`, `{"actual":true}`,
		`{"actual":123456789012345678901234567890}`, `{"actual":1}x`,
		// Strings: every escape, surrogates whole and broken, raw and
		// invalid UTF-8, control characters.
		`{"sql":"\"\\\/\b\f\n\r\t"}`, `{"sql":"\u0041\u00e9\u4e2d\u003c\u003E"}`, `{"sql":"\ud83d\ude00"}`,
		`{"sql":"\ud83d"}`, `{"sql":"\ude00"}`, `{"sql":"\ud83dx"}`, `{"sql":"\ud83d\u0041"}`, `{"sql":"\ud83d\ud83d\ude00"}`,
		`{"sql":"\ude00\ud83d"}`, `{"sql":"\ud83d\n"}`, `{"sql":"\ud83d\u"}`, `{"sql":"\ud83d\ude0"}`, `{"sql":"\ud83d\`,
		`{"sql":"\u12"}`, `{"sql":"\u12g4"}`, `{"sql":"\x"}`, `{"sql":"\U0041"}`, `{"sql":"\`, `{"sql":"\"}`, `{"sql":"abc`,
		"{\"sql\":\"é中😀\"}", "{\"sql\":\"a\xffb\"}", "{\"sql\":\"\xc3\"}", "{\"sql\":\"\xed\xa0\x80\"}", "{\"sql\":\"\xf4\x90\x80\x80\"}",
		"{\"sql\":\"\xef\xbf\xbd\"}", "{\"sql\":\"a\x00b\"}", "{\"sql\":\"a\nb\"}", "{\"sql\":\"a\x1fb\"}", "{\"sql\":\"a\x7fb\"}",
		"{\"sql\":\"tab\tin\"}", `{"model":"\u0000"}`,
		// Keys: escaped, unknown, case-folded, not strings.
		`{"s\u0071l":"a"}`, `{"\u0073ql":"a","que\u0072ies":[]}`, `{"sq\l":"a"}`, `{"bogus":1}`, `{"sql":"a","bogus":{"deep":[1,2,{"x":null}]}}`,
		`{"":"a"}`, `{"SQL":"a"}`, `{"Sql":"a","sql":"b"}`, `{"timeoutms":5}`, `{"TimeoutMs":5}`, `{"ſql":"a"}`, `{"queries":[{"SQL":"a"}]}`,
		`{"queries":[{"Actual":1}]}`, `{"sql\u0000":"a"}`, "{\"sql\xff\":\"a\"}", `{sql:"a"}`, `{'sql':"a"}`, `{1:"a"}`, `{"queries":[{"model":"m"}]}`,
		// Wrong types and broken structure.
		`{"sql":1}`, `{"sql":true}`, `{"sql":["a"]}`, `{"sql":{"a":1}}`, `{"model":1}`, `{"queries":{}}`, `{"queries":"a"}`,
		`{"queries":[1]}`, `{"queries":["a"]}`, `{"queries":[[]]}`, `{"queries":[{"sql":1}]}`, `{"queries":[{"sql":"a"},]}`,
		`{"queries":[{"sql":"a"}`, `{"queries":[{"sql":"a"}}`, `{"queries":[,]}`, `{"sql":"a",}`, `{,}`, `{"sql"}`, `{"sql":}`,
		`{"sql" "a"}`, `{"sql":"a" "model":"m"}`, `{`, `}`, `[`, `[]`, `[{"sql":"a"}]`, `"sql"`, `1`, `true`, `false`, `nul`, `nulll`, `nullx`,
		`{"sql":nul}`, `{"sql":nullx}`, `{"sql":"a"}}`, `{"sql":"a"}{"sql":"b"}`, `{"sql":"a"} x`, `{"sql":"a"}` + "\x00", `null null`,
		"\xef\xbb\xbf{\"sql\":\"a\"}", `{"sql":"a"}` + "\xff",
	}
	var d wireDecoder
	for _, body := range bodies {
		checkDecode(t, &d, []byte(body))
	}
	for _, body := range estimateBodySeeds() {
		checkDecode(t, &d, []byte(body))
	}
	_, singles, batch := benchBodies(t, 64)
	for _, body := range append(singles, batch) {
		var req estimateRequest
		if err := d.decode(body, &req); err != nil {
			t.Fatalf("a benchmark body is rejected: %v\n%s", err, body)
		}
		checkDecode(t, &d, body)
	}
}

// escapeBodies probe what the decoder reads without encoding/json's help:
// SQL as json.Marshal escapes it (every < > & a \u00XX), ASCII escapes in
// either case and at the end of a truncated body, the first escapes above
// ASCII, surrogates paired, lone and followed by an ASCII escape, invalid
// \u escapes, and every byte class at every offset of an eight-byte word.
func escapeBodies() []string {
	var bodies []string
	for _, sql := range []string{
		"SELECT count(*) FROM forest WHERE A1 >= 2500 AND A1 <> 2600 AND (A2 < 3 OR A2 > 7)",
		"SELECT count(*) FROM t WHERE s = '<b>&amp;</b>' AND a <> 1",
		"<><><>", "a<>b", "&&&&&&&&",
	} {
		single, _ := json.Marshal(estimateRequest{SQL: sql})
		bodies = append(bodies, string(single))
	}
	bodies = append(bodies,
		`{"sql":"\u003C\u003E\u0026\u003c\u003e"}`, `{"sql":"\u0000\u001f\u0020\u007f\u007F"}`,
		`{"sql":"\u0080\u00ff\u00FF\u0100"}`, `{"sql":"a\u00"}`, `{"sql":"a\u003"}`, `{"sql":"a\u003c`, `{"sql":"a\u00`,
		`{"sql":"\u00zz"}`, `{"sql":"\u0g3c"}`, `{"sql":"\u00-1"}`, `{"sql":"\u 03c"}`,
		`{"sql":"\ud83d\ude00\u003c"}`, `{"sql":"\ud83d\u003c"}`, `{"sql":"\ude00\u003e"}`, `{"sql":"\ud83d\ud83d"}`,
		`{"sql":"\udbff\udfff"}`, `{"sql":"\ud800\udc00x"}`, `{"sql":"\ud83d\ude0g"}`,
	)
	for off := 0; off < 9; off++ {
		pad := strings.Repeat("x", off)
		for _, b := range []string{`\"`, `\\`, `\u003c`, "\x01", "\x7f", "é", "\xff", `"`} {
			bodies = append(bodies, `{"sql":"`+pad+b+pad+`"}`, `{"sql":"`+pad+`\u003e`+pad+b+`"}`)
		}
	}
	return bodies
}

func TestDecodeEscapesMatchOracle(t *testing.T) {
	var d wireDecoder
	for _, body := range escapeBodies() {
		checkDecode(t, &d, []byte(body))
	}
}

// TestDecodeTightenings pins the two places where the codec is stricter than
// encoding/json, so a future change cannot widen or narrow them silently.
func TestDecodeTightenings(t *testing.T) {
	var d wireDecoder
	for _, body := range []string{
		`{"sql":"a"} x`, `{"sql":"a"}{"sql":"b"}`, `{"sql":"a"}]`, `null 1`,
		`{"SQL":"a"}`, `{"sql":"a","Model":"m"}`, `{"queries":[{"Sql":"a"}]}`, `{"ſql":"a"}`,
	} {
		if _, _, err := oracleDecode([]byte(body)); err != nil {
			t.Errorf("body %q: encoding/json rejects it too (%v); it is no divergence", body, err)
		}
		var req estimateRequest
		if err := d.decode([]byte(body), &req); err == nil {
			t.Errorf("body %q: accepted as %+v, want it rejected", body, req)
		}
	}
}

// TestDecodedStringsAreOwned: the journal queue keeps FeedbackEvent.SQL after
// the response is written, so no decoded string may share memory with the
// pooled body or the decoder's unescape buffer.
func TestDecodedStringsAreOwned(t *testing.T) {
	body := []byte(`{"model":"m\u0031","sql":"plain text","queries":[{"sql":"a \u003c 5"},{"sql":"b = 1"}]}`)
	var d wireDecoder
	var req estimateRequest
	if err := d.decode(body, &req); err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 'X'
	}
	for i := range d.text[:cap(d.text)] {
		d.text[:cap(d.text)][i] = 'Y'
	}
	want := estimateRequest{Model: "m1", SQL: "plain text", Queries: []estimateItem{{SQL: "a < 5"}, {SQL: "b = 1"}}}
	if !reflect.DeepEqual(req, want) {
		t.Errorf("after the buffers were overwritten the request reads %s, want %s", dumpRequest(req), dumpRequest(want))
	}
}

// ---- encoder ----

var (
	floatSeeds = []float64{
		0, math.Copysign(0, -1), 1, -1, 42, 0.1, 123456.789, 1e20, 1e21, 999999999999999868928, 1.5e21, 1e-6, 1e-7, 9.99e-7,
		1.5e-9, 1e-10, 5e-324, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64, 1e300, 0.30000000000000004,
		float64(1 << 53), math.NaN(), math.Inf(1), math.Inf(-1),
	}
	textSeeds = []string{
		"", "learned", "forest_gb", "<script>&amp;</script>", "a\u2028b\u2029c", "\x00\x01\x1f\x7f", "\xff\xfe bad \xc3",
		`quote " and \ backslash`, "tab\tnl\n\b\f\r", "日本語 é 😀", "\xed\xa0\x80", "\xf4\x90\x80\x80", "\xe2\x80", "\ufffd",
		`unknown field "bogus"`, "unexpected character '©' at offset 30",
	}
)

// responsesOf spreads one fuzzed tuple over the response shapes the handler
// sends: a single answer, a failed single, and a batch mixing both.
func responsesOf(est float64, micros int64, degraded bool, text string) []estimateResponse {
	res := estimateResult{Estimate: est, Stage: text, Degraded: degraded, Micros: micros}
	failed := estimateResult{Micros: micros, Error: text}
	return []estimateResponse{
		{Model: text, estimateResult: res},
		{Model: "m", estimateResult: failed},
		{Model: text, Results: []estimateResult{res, failed, {Estimate: -est, Micros: -micros}, {}}},
		{Model: "m", estimateResult: estimateResult{Estimate: est, Stage: "s", Degraded: degraded, Micros: micros, Error: text}, Results: []estimateResult{res}},
	}
}

func TestEncodeMatchesOracle(t *testing.T) {
	for i, f := range floatSeeds {
		for j, text := range textSeeds {
			for _, resp := range responsesOf(f, int64(i*1000-j), j%2 == 0, text) {
				checkEncode(t, resp)
			}
		}
	}
	checkEncode(t, estimateResponse{})
	checkEncode(t, estimateResponse{estimateResult: estimateResult{Micros: math.MinInt64}})
}

// ---- both, under fuzzing ----

// FuzzEstimateCodec holds the wire codec to encoding/json. For any body the
// decoder and json.Decoder (DisallowUnknownFields) either both fail or yield
// equal requests; the only permitted divergences are the two tightenings
// stricterThanOracle recognises, both in the rejecting direction. For any
// response — fuzzed floats and strings spread over the shapes the handler
// sends — the encoder's bytes equal json.Encoder's, and it refuses exactly
// the values json.Encoder refuses (NaN, ±Inf).
//
// Explore with `go test -fuzz=FuzzEstimateCodec ./internal/serve`.
func FuzzEstimateCodec(f *testing.F) {
	bodies := append(estimateBodySeeds(), escapeBodies()...)
	_, singles, batch := benchBodies(f, 4)
	for _, b := range append(singles, batch) {
		bodies = append(bodies, string(b))
	}
	bodies = append(bodies,
		`{"queries":[{"sql":"a","actual":1}],"queries":[{"sql":"b"}],"SQL":"x"}`,
		`{"sql":"\ud83d\ude00 \ud83d \u003c","actual":1e21} trailing`,
	)
	for i, body := range bodies {
		f.Add(body, floatSeeds[i%len(floatSeeds)], int64(i)*37-5, i%3 == 0, textSeeds[i%len(textSeeds)])
	}
	for i, v := range floatSeeds {
		f.Add(`{"sql":"x"}`, v, int64(i), i%2 == 0, textSeeds[i%len(textSeeds)])
	}
	var d wireDecoder
	f.Fuzz(func(t *testing.T, body string, est float64, micros int64, degraded bool, text string) {
		checkDecode(t, &d, []byte(body))
		for _, resp := range responsesOf(est, micros, degraded, text) {
			checkEncode(t, resp)
		}
	})
}

// ---- the handler around the codec ----

// TestServedBytesAreJSONEncoderBytes: what the handler writes is, byte for
// byte, what json.Encoder writes for the same values — checked by reading
// each response back and rendering it through the oracle.
func TestServedBytesAreJSONEncoderBytes(t *testing.T) {
	post := func(h http.Handler, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/estimate", strings.NewReader(body)))
		if got := rec.Header().Get("Content-Type"); got != "application/json" {
			t.Errorf("body %q: Content-Type %q", body, got)
		}
		return rec
	}
	reencode := func(rec *httptest.ResponseRecorder, into any) []byte {
		dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(into); err != nil {
			t.Fatalf("response %q: %v", rec.Body, err)
		}
		out, err := oracleEncode(into)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	ok := cachedServer(t, constEst(1234.5), nil).Handler()
	failing := newStubServer(t, errEst{}, nil).Handler() // answered degraded, by the last resort
	for _, c := range []struct {
		h    http.Handler
		body string
		code int
	}{
		{ok, `{"sql":"` + stubSQL + `"}`, 200},
		{ok, `{"sql":"` + stubSQL + `","actual":7}`, 200}, // the same key again: a hit
		{ok, `{"queries":[{"sql":"` + stubSQL + `"},{"sql":"DROP <b>&\u2028"},{"sql":"SELECT count(*) FROM t WHERE b = 2","actual":1e999}]}`, 400},
		{ok, `{"queries":[{"sql":"` + stubSQL + `"},{"sql":"DROP <b>&\u2028"},{"sql":"SELECT count(*) FROM t WHERE b = 2"}]}`, 200},
		{failing, `{"sql":"` + stubSQL + `"}`, 200},
		{failing, `{"queries":[{"sql":"` + stubSQL + `"}]}`, 200},
	} {
		rec := post(c.h, c.body)
		if rec.Code != c.code {
			t.Fatalf("body %q: status %d, want %d: %s", c.body, rec.Code, c.code, rec.Body)
		}
		var want []byte
		if rec.Code == 400 {
			want = reencode(rec, &errorResponse{})
		} else {
			want = reencode(rec, &estimateResponse{})
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("body %q:\nserved %q\noracle %q", c.body, rec.Body.Bytes(), want)
		}
	}

	// Error strings echo client input; every class of byte json.Encoder
	// escapes must arrive escaped.
	rec := post(ok, "{\"<b>&\u2028\xff\":1}")
	if rec.Code != 400 {
		t.Fatalf("status %d, want 400", rec.Code)
	}
	if want := reencode(rec, &errorResponse{}); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("served %q\noracle %q", rec.Body.Bytes(), want)
	}
	for _, raw := range []string{"<", ">", "&", "\u2028", "\xff"} {
		if bytes.Contains(rec.Body.Bytes(), []byte(raw)) {
			t.Errorf("the error response carries a raw %q: %q", raw, rec.Body.Bytes())
		}
	}
}

// TestOversizeBodyIs413: a body past maxBodyBytes is too large, not
// malformed — the same status the batch-size limit answers with.
func TestOversizeBodyIs413(t *testing.T) {
	srv := newStubServer(t, constEst(1), nil)
	body := `{"sql":"` + stubSQL + strings.Repeat(" ", maxBodyBytes) + `"}`
	code, resp := rawPost(t, srv.Handler(), "/v1/estimate", []byte(body))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("a %d-byte body against a %d-byte limit: status %d (%v), want 413", len(body), maxBodyBytes, code, resp)
	}
	if msg, _ := resp["error"].(string); !strings.Contains(msg, "1048576") {
		t.Errorf("error %q does not name the limit", msg)
	}
	if code, _ := rawPost(t, srv.Handler(), "/v1/estimate", []byte(`{"sql":"`+stubSQL+`"}`)); code != http.StatusOK {
		t.Errorf("a body under the limit: status %d, want 200", code)
	}
}

// TestTightenedBodiesAre400 is the handler's side of TestDecodeTightenings.
func TestTightenedBodiesAre400(t *testing.T) {
	h := newStubServer(t, constEst(1), nil).Handler()
	for _, body := range []string{
		`{"sql":"` + stubSQL + `"} trailing`,
		`{"sql":"` + stubSQL + `"}{"sql":"` + stubSQL + `"}`,
		`{"SQL":"` + stubSQL + `"}`,
		`{"sql":"` + stubSQL + `","TimeoutMS":5}`,
	} {
		if code, resp := rawPost(t, h, "/v1/estimate", []byte(body)); code != http.StatusBadRequest {
			t.Errorf("body %q: status %d (%v), want 400", body, code, resp)
		}
	}
}

// TestDeadlineIsAnchoredAtEntry: the deadline is read only when something is
// about to be estimated, but counts from the handler's entry, capped at 30 s
// however large a timeoutMs the client sends; without a timeout there is
// none.
func TestDeadlineIsAnchoredAtEntry(t *testing.T) {
	srv := newStubServer(t, constEst(1), func(c *Config) { c.DefaultTimeout = 100 * time.Millisecond })
	entry := time.Now().Add(-40 * time.Millisecond) // the handler was entered 40 ms ago
	for _, c := range []struct {
		timeoutMS int64
		want      time.Duration
	}{
		{0, 100 * time.Millisecond}, {-5, 100 * time.Millisecond}, {250, 250 * time.Millisecond},
		{5000, 5 * time.Second}, {60_000, 30 * time.Second},
		// Past these the milliseconds overflow a Duration: the first and the
		// largest wrap to a negative budget (no deadline at all), the last to
		// 448 µs.
		{9_223_372_036_855, 30 * time.Second}, {math.MaxInt64, 30 * time.Second}, {18_446_744_073_710, 30 * time.Second},
	} {
		if got := srv.deadlineFrom(entry, c.timeoutMS); !got.Equal(entry.Add(c.want)) {
			t.Errorf("timeoutMs %d: deadline %v after entry, want %v", c.timeoutMS, got.Sub(entry), c.want)
		}
	}
	slow := newStubServer(t, constEst(1), func(c *Config) { c.DefaultTimeout = time.Minute })
	if got := slow.deadlineFrom(entry, 0); !got.Equal(entry.Add(30 * time.Second)) {
		t.Errorf("a one-minute server default: deadline %v after entry, want the 30 s cap", got.Sub(entry))
	}

	none := newStubServer(t, constEst(1), nil) // no DefaultTimeout
	if at := none.deadlineFrom(entry, 0); !at.IsZero() {
		t.Errorf("no timeout configured or requested: deadline %v, want none", at)
	}

	// End to end: a body that takes longer to arrive than its timeoutMs has
	// spent its budget before the chain runs, and is answered degraded; the
	// same body sent promptly is the learned stage's.
	chain := resilience.NewResilient(resilience.Config{LastResort: resilience.Constant{Value: 77}},
		resilience.Stage{Name: "learned", Est: constEst(5)})
	h := newStubServer(t, chain, nil).Handler()
	body := `{"sql":"` + stubSQL + `","timeoutMs":50}`
	for _, c := range []struct {
		delay time.Duration
		stage string
	}{{0, "learned"}, {150 * time.Millisecond, "constant"}} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/estimate", &slowReader{delay: c.delay, r: strings.NewReader(body)}))
		var resp map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("body delayed %v: status %d, %q", c.delay, rec.Code, rec.Body)
		}
		if resp["stage"] != c.stage || (resp["degraded"] == true) != (c.stage != "learned") {
			t.Errorf("body delayed %v against timeoutMs 50: %v, want stage %s", c.delay, resp, c.stage)
		}
	}
}

// slowReader is a request body whose bytes arrive delay after the first read.
type slowReader struct {
	delay time.Duration
	r     io.Reader
}

func (s *slowReader) Read(p []byte) (int, error) {
	time.Sleep(s.delay)
	s.delay = 0
	return s.r.Read(p)
}

// ---- allocation pins ----

// replayBody is a request body that can be rewound and sent again.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// discardWriter is the least a handler can write to.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// handlerAllocs is the mean allocation count of one request through h, over
// bodies sent in turn, each once before counting (to fill the cache and the
// pools).
func handlerAllocs(t *testing.T, h http.Handler, bodies [][]byte) float64 {
	t.Helper()
	body := &replayBody{}
	req := httptest.NewRequest(http.MethodPost, "/v1/estimate", nil)
	req.Body = body
	w := &discardWriter{h: http.Header{}}
	i := 0
	send := func() {
		body.Reset(bodies[i%len(bodies)])
		i++
		h.ServeHTTP(w, req)
	}
	for range bodies {
		send()
	}
	return testing.AllocsPerRun(4*len(bodies), send)
}

// TestEstimateTextHitAllocs pins the whole handler on a cache hit with no
// Feedback hook installed — the daemon without -journal, and the
// benchmark's single-hot: the key is the digest of the text, so no AST is
// built. What is left is the request's own copy of the SQL, the "actual"
// pointer when there is one, and the two small wrappers of net/http's body
// limit and the status-counting writer — no parse, no fingerprint, no decoder
// state, no deadline, no timer, no key on the heap, no encoder state, no
// header slice. A batch of hits parses nothing either.
func TestEstimateTextHitAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector defeats sync.Pool")
	}
	db, singles, batch := benchBodies(t, 64)
	srv := cachedServer(t, constEst(77), func(c *Config) {
		c.DB = db
		c.Cache.Entries = 1024                    // no shard of 16 evicts among 64 keys
		c.DefaultTimeout = 100 * time.Millisecond // cardestd's default
	})
	h := srv.Handler()

	got := handlerAllocs(t, h, singles)
	t.Logf("single hit: %.1f allocs/request", got)
	if got > 6 {
		t.Errorf("a cached single allocates %.1f times, want <= 6", got)
	}
	got = handlerAllocs(t, h, [][]byte{batch})
	t.Logf("64-query batch, all hits: %.1f allocs/request", got)
	if limit := float64(64*2 + 16); got > limit {
		t.Errorf("a cached 64-query batch allocates %.1f times, want <= %v", got, limit)
	}
	if misses := srv.Metrics().Snapshot()["cache_misses"].(int64); misses != 64 {
		t.Errorf("cache_misses = %d, want 64 (the first pass over the singles): every counted request must have been a hit", misses)
	}
}

// TestEstimateMissAllocs pins the whole handler on a single-query miss in the
// daemon's shape — a resilience chain over a learned stage, the 100 ms
// default deadline, and a cache so small that every miss evicts (the
// benchmark's single-cold). The model's own work is what is left: the query
// is parsed into the request's arena, the deadline is a time.Time the chain
// compares the clock with (no context, no timer, no child on the request's
// context), the miss is computed and put on the request's goroutine with no
// per-key bookkeeping beside the entry, and the new entry takes over the
// evicted one's slot instead of allocating a list node and an entry
// (measured 3; 5 with a lazy deadline context and its cancel per miss, 26
// while the AST was the heap's, 32 with a context.WithDeadline per miss and
// a container/list LRU).
func TestEstimateMissAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector defeats sync.Pool")
	}
	db, singles, _ := benchBodies(t, 128)
	chain := resilience.NewResilient(resilience.Config{LastResort: resilience.Constant{Value: 1}},
		resilience.Stage{Name: "learned", Est: constEst(77)})
	srv := cachedServer(t, chain, func(c *Config) {
		c.DB = db
		c.Cache = CacheConfig{Entries: cacheShards} // 128 keys in turn through one slot per shard: every request misses
		c.DefaultTimeout = 100 * time.Millisecond
	})
	got := handlerAllocs(t, srv.Handler(), singles)
	t.Logf("single miss: %.1f allocs/request", got)
	if limit := 3.0; got > limit {
		t.Errorf("a single miss allocates %.1f times, want <= %v: is the query parsed into the heap, is a deadline context built, or an LRU node allocated again?", got, limit)
	}
	m := srv.Metrics().Snapshot()
	if hits := m["cache_hits"].(int64); hits != 0 {
		t.Errorf("cache_hits = %d, want 0: every counted request must have been a miss", hits)
	}
	if ev, misses := m["cache_evictions"].(int64), m["cache_misses"].(int64); ev != misses-cacheShards {
		t.Errorf("cache_evictions = %d over %d misses, want every miss past the first %d to evict", ev, misses, cacheShards)
	}
}

// TestEstimateHitAllocs pins the handler on a cache hit when a Feedback hook
// is installed: the hook is owed the bound query and gets the one the entry
// kept from its miss, so the hit parses nothing and costs what
// TestEstimateTextHitAllocs counts, plus the event.
func TestEstimateHitAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector defeats sync.Pool")
	}
	db, singles, batch := benchBodies(t, 64)
	var events int
	srv := cachedServer(t, constEst(77), func(c *Config) {
		c.DB = db
		c.Cache.Entries = 1024                    // no shard of 16 evicts among 64 keys
		c.DefaultTimeout = 100 * time.Millisecond // cardestd's default
		c.Feedback = func(FeedbackEvent) { events++ }
	})
	h := srv.Handler()

	got := handlerAllocs(t, h, singles)
	t.Logf("single hit: %.1f allocs/request", got)
	if limit := 8.0; got > limit {
		t.Errorf("a cached single allocates %.1f times, want <= %v: is the text parsed again for the hook?", got, limit)
	}
	got = handlerAllocs(t, h, [][]byte{batch})
	t.Logf("64-query batch, all hits: %.1f allocs/request", got)
	if limit := float64(64*4 + 16); got > limit {
		t.Errorf("a cached 64-query batch allocates %.1f times, want <= %v: is the text parsed again for the hook?", got, limit)
	}
	if misses := srv.Metrics().Snapshot()["cache_misses"].(int64); misses > 64 {
		t.Errorf("cache_misses = %d, want <= 64 (the first pass over the singles): every counted request must have been a hit", misses)
	}
	if events == 0 {
		t.Error("the feedback hook saw nothing")
	}
}

// ---- benchmarks: the decoder and encoder against encoding/json ----

func BenchmarkEstimateDecode(b *testing.B) {
	_, singles, batch := benchBodies(b, 64)
	for _, c := range []struct {
		name string
		body []byte
	}{{"single", singles[0]}, {"batch64", batch}} {
		b.Run(c.name+"/codec", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(c.body)))
			var d wireDecoder
			for i := 0; i < b.N; i++ {
				var req estimateRequest
				if err := d.decode(c.body, &req); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/json", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(c.body)))
			for i := 0; i < b.N; i++ {
				if _, _, err := oracleDecode(c.body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEstimateEncode(b *testing.B) {
	resp := estimateResponse{Model: "forest_gb", estimateResult: estimateResult{Estimate: 1234.5678, Stage: "learned", Micros: 17}}
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf, _ = appendEstimateResponse(buf[:0], &resp)
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// textEst answers every query with a value derived from its text, so a
// response that carries another request's estimate is visible.
type textEst struct{}

func (textEst) Name() string { return "text" }
func (textEst) Estimate(q *sqlparse.Query) (float64, error) {
	return textEstimate(q.String()), nil
}

func textEstimate(sql string) float64 {
	h := fnv.New32a()
	h.Write([]byte(sql)) //nolint:errcheck // never fails
	return float64(h.Sum32()%1_000_000) + 1.5
}

// TestConcurrentRequestsShareNoScratch: singles and batches from many
// goroutines at once, over a cache too small to hold them, so pooled
// scratches are recycled between request shapes all the time. Every answer
// must be the estimate of the query it was asked about: a body, result slice
// or response buffer shared between two requests would mix them up (and trip
// the race detector).
func TestConcurrentRequestsShareNoScratch(t *testing.T) {
	db, singles, batch := benchBodies(t, 48)
	var batchReq estimateRequest
	if err := json.Unmarshal(batch, &batchReq); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(batchReq.Queries))
	for i, item := range batchReq.Queries {
		want[i] = textEstimate(sqlparse.MustParse(item.SQL).String())
	}
	srv := newStubServer(t, textEst{}, func(c *Config) {
		c.DB = db
		c.Cache = CacheConfig{Entries: 16}
		c.Feedback = func(FeedbackEvent) {}
	})
	h := srv.Handler()

	const goroutines, rounds = 6, 40
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			for r := 0; r < rounds; r++ {
				i := (g*7 + r) % len(singles)
				body, wantResults := singles[i], want[i:i+1]
				if (g+r)%3 == 0 {
					body, wantResults = batch, want
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(body)))
				var resp estimateResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
					errs <- fmt.Errorf("status %d, %v: %s", rec.Code, err, rec.Body)
					return
				}
				got := resp.Results
				if len(got) == 0 {
					got = []estimateResult{resp.estimateResult}
				}
				if len(got) != len(wantResults) {
					errs <- fmt.Errorf("%d results for %d queries", len(got), len(wantResults))
					return
				}
				for k := range got {
					if got[k].Estimate != wantResults[k] || got[k].Error != "" {
						errs <- fmt.Errorf("goroutine %d round %d result %d: %+v, want estimate %v", g, r, k, got[k], wantResults[k])
						return
					}
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
