package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"unitdb/internal/obs/trace"
)

// This file is the wire codec of the two hot shapes, GET /query and
// POST /update: the query string the client builds and the handler reads,
// and the response bytes the handler writes and the client reads. The
// responses are byte for byte what encoding/json writes for the same
// values, without its reflection.

// appendQueryDuration appends d as integer nanoseconds with an ns suffix:
// exact, unlike Duration.String's decimal fractions, and accepted as is
// by time.ParseDuration.
func appendQueryDuration(b []byte, d time.Duration) []byte {
	return append(strconv.AppendInt(b, int64(d), 10), "ns"...)
}

// appendQueryFloat appends f as a query-string value in the shortest form
// that round-trips. The only byte of that form that needs escaping is the
// '+' of an exponent (1e+06) or of +Inf, which would otherwise reach the
// server as a space.
func appendQueryFloat(b []byte, f float64) []byte {
	start := len(b)
	b = strconv.AppendFloat(b, f, 'g', -1, 64)
	if i := bytes.IndexByte(b[start:], '+'); i >= 0 {
		i += start
		b = append(b, "  "...)
		copy(b[i+3:], b[i+1:])
		copy(b[i:], "%2B")
	}
	return b
}

// queryParam returns the first value of key in the raw query string. It
// answers exactly what url.ParseQuery(raw).Get(key) answers with the
// error ignored, which is what r.URL.Query().Get(key) does, but it scans
// raw once without building the url.Values map, and unescapes a pair
// only when it holds a '%' or a '+'. Like ParseQuery it skips empty
// pairs, pairs holding a ';', and pairs that do not unescape.
func queryParam(raw, key string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		k, ok := queryUnescape(k)
		if !ok || k != key {
			continue
		}
		if v, ok = queryUnescape(v); ok {
			return v
		}
	}
	return ""
}

// queryUnescape is url.QueryUnescape, skipped when s has nothing to
// unescape; ok is false when s is not validly escaped.
func queryUnescape(s string) (string, bool) {
	if !strings.ContainsAny(s, "%+") {
		return s, true
	}
	s, err := url.QueryUnescape(s)
	return s, err == nil
}

// parseItems parses a comma-separated item-id list, enforcing the input
// contract: non-empty, at most MaxQueryItems entries, every id a
// non-negative integer, no duplicates. Range against the server's data-set
// size is checked later by Query, which knows NumItems. The list is short,
// so duplicates are found by a linear scan of the ids parsed so far.
func parseItems(raw string) ([]int, error) {
	if raw == "" {
		return nil, fmt.Errorf("items must be a comma-separated list of item ids")
	}
	n := strings.Count(raw, ",") + 1
	if n > MaxQueryItems {
		return nil, fmt.Errorf("too many items: %d exceeds the limit of %d", n, MaxQueryItems)
	}
	items := make([]int, 0, n)
	for len(items) < n {
		var p string
		p, raw, _ = strings.Cut(raw, ",")
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad item %q: must be an integer id", p)
		}
		if v < 0 {
			return nil, fmt.Errorf("bad item %d: must not be negative", v)
		}
		if slices.Contains(items, v) {
			return nil, fmt.Errorf("duplicate item %d", v)
		}
		items = append(items, v)
	}
	return items, nil
}

// wireBufs recycles the handler's response buffers and the client's
// body buffers.
var wireBufs = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// putWireBuf returns buf to the pool unless an outsized body grew it.
func putWireBuf(buf *[]byte) {
	if cap(*buf) <= 64<<10 {
		wireBufs.Put(buf)
	}
}

// jsonContentType is assigned to the header map directly: Header().Set
// would allocate a fresh one-element slice per response.
var jsonContentType = []string{"application/json"}

// The two update acknowledgements, as encoding/json writes them.
var (
	ackApplied = []byte("{\"applied\":true}\n")
	ackDropped = []byte("{\"applied\":false}\n")
)

// appendQueryResponse appends resp to b exactly as json.NewEncoder(w).Encode
// writes it: the struct's field order and omitempty rules, values keys
// sorted as strings, encoding/json's float format, and a trailing newline.
// Like encoding/json it fails on a NaN or infinite float.
func appendQueryResponse(b []byte, resp *QueryResponse) ([]byte, error) {
	finite := true
	float := func(f float64) {
		finite = finite && !math.IsNaN(f) && !math.IsInf(f, 0)
		b = appendJSONFloat(b, f)
	}
	b = append(b, `{"outcome":`...)
	b = appendJSONString(b, string(resp.Outcome))
	if len(resp.Values) > 0 {
		var scratch [MaxQueryItems]string
		keys := scratch[:0]
		for k := range resp.Values {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		b = append(b, `,"values":{`...)
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, k)
			b = append(b, ':')
			float(resp.Values[k])
		}
		b = append(b, '}')
	}
	b = append(b, `,"freshness":`...)
	float(resp.Freshness)
	b = append(b, `,"latency_ns":`...)
	b = strconv.AppendInt(b, int64(resp.Latency), 10)
	if resp.Query != 0 {
		b = append(b, `,"query":`...)
		b = strconv.AppendInt(b, resp.Query, 10)
	}
	if st := resp.Stages; st != nil {
		b = append(b, `,"stages":{"queue_wait":`...)
		float(st.QueueWait)
		b = append(b, `,"lock_wait":`...)
		float(st.LockWait)
		b = append(b, `,"exec":`...)
		float(st.Exec)
		b = append(b, `,"overhead":`...)
		float(st.Overhead)
		b = append(b, `,"total":`...)
		float(st.Total)
		b = append(b, '}')
	}
	if !finite {
		return b, fmt.Errorf("server: query response holds a NaN or infinite number")
	}
	return append(b, "}\n"...), nil
}

// appendJSONFloat appends f in encoding/json's format: the shortest
// decimal that round-trips, in exponent form below 1e-6 and from 1e21 up,
// with a one-digit negative exponent written e-7 rather than e-07.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendJSONString appends s as a JSON string. The strings this codec
// writes (outcomes, decimal item ids) never need escaping; anything that
// does goes through encoding/json, so its escaping rules hold exactly.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// readWire reads a response body to EOF into a pooled buffer and hands
// it to decode, which must not keep it.
func readWire(r io.Reader, decode func([]byte) error) error {
	buf := wireBufs.Get().(*[]byte)
	defer putWireBuf(buf)
	b := (*buf)[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		*buf = b
		if err == io.EOF {
			return decode(b)
		}
		if err != nil {
			return err
		}
	}
}

// decodeQueryResponse decodes a /query response body. It reads the shape
// appendQueryResponse writes, in any key order and with any whitespace,
// matches keys case-insensitively and skips unknown ones as encoding/json
// does. Anything it cannot read exactly as encoding/json would (an
// escaped or non-ASCII string, a null, a number out of range) is an
// error, never a guess: whenever it accepts, json.Unmarshal accepts too
// and gives the same value.
func decodeQueryResponse(b []byte) (QueryResponse, error) {
	var (
		outcome        Outcome
		values         map[string]float64
		fresh          float64
		latency, query int64
		stages         *trace.StageBreakdown
	)
	d := wireDecoder{b: b}
	if err := d.open('{'); err != nil {
		return QueryResponse{}, err
	}
	for n := 0; ; n++ {
		key, more, err := d.member(n)
		if err != nil {
			return QueryResponse{}, err
		}
		if !more {
			break
		}
		switch {
		case keyIs(key, "outcome"):
			var s []byte
			if s, err = d.plainString(); err == nil {
				outcome = outcomeOf(s)
			}
		case keyIs(key, "values"):
			values, err = d.values(values)
		case keyIs(key, "freshness"):
			fresh, err = d.float()
		case keyIs(key, "latency_ns"):
			latency, err = d.int()
		case keyIs(key, "query"):
			query, err = d.int()
		case keyIs(key, "stages"):
			stages, err = d.stages(stages)
		default:
			err = d.skip(0)
		}
		if err != nil {
			return QueryResponse{}, err
		}
	}
	if err := d.end(); err != nil {
		return QueryResponse{}, err
	}
	return QueryResponse{Outcome: outcome, Values: values, Freshness: fresh,
		Latency: time.Duration(latency), Query: query, Stages: stages}, nil
}

// decodeUpdateAck decodes a /update response body, {"applied":bool}, with
// the same rules as decodeQueryResponse.
func decodeUpdateAck(b []byte) (applied bool, err error) {
	d := wireDecoder{b: b}
	if err := d.open('{'); err != nil {
		return false, err
	}
	for n := 0; ; n++ {
		key, more, err := d.member(n)
		if err != nil {
			return false, err
		}
		if !more {
			break
		}
		if keyIs(key, "applied") {
			applied, err = d.bool()
		} else {
			err = d.skip(0)
		}
		if err != nil {
			return false, err
		}
	}
	return applied, d.end()
}

// wireDecoder is a cursor over a JSON document.
type wireDecoder struct {
	b []byte
	i int
}

// maxSkipDepth bounds the nesting of a skipped unknown value.
const maxSkipDepth = 64

func (d *wireDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("JSON offset %d: "+format, append([]any{d.i}, args...)...)
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *wireDecoder) peek() byte {
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// open consumes the byte c after any whitespace.
func (d *wireDecoder) open(c byte) error {
	if d.peek() != c {
		return d.errorf("want %q", c)
	}
	d.i++
	return nil
}

// end requires nothing but whitespace after the document.
func (d *wireDecoder) end() error {
	if d.peek(); d.i != len(d.b) {
		return d.errorf("trailing data")
	}
	return nil
}

// member reads the key of an object's next member and the colon after
// it, n being the members read so far. more is false at the closing
// brace, which it consumes. Keys must be plain strings.
func (d *wireDecoder) member(n int) (key []byte, more bool, err error) {
	c := d.peek()
	if c == '}' {
		d.i++
		return nil, false, nil
	}
	if n > 0 {
		if c != ',' {
			return nil, false, d.errorf("want ',' or '}'")
		}
		d.i++
	}
	if key, err = d.plainString(); err != nil {
		return nil, false, err
	}
	return key, true, d.open(':')
}

// plainString reads a string holding only printable ASCII without
// escapes, the only strings this codec writes.
func (d *wireDecoder) plainString() ([]byte, error) {
	if err := d.open('"'); err != nil {
		return nil, err
	}
	start := d.i
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start : d.i-1], nil
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, d.errorf("escaped or non-ASCII string")
		}
	}
	return nil, d.errorf("unterminated string")
}

// number reads a JSON number token.
func (d *wireDecoder) number() ([]byte, error) {
	d.peek()
	start := d.i
	digits := func() int {
		n := 0
		for ; d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9'; d.i++ {
			n++
		}
		return n
	}
	if d.i < len(d.b) && d.b[d.i] == '-' {
		d.i++
	}
	switch {
	case d.i < len(d.b) && d.b[d.i] == '0':
		d.i++
	case digits() == 0:
		return nil, d.errorf("want a number")
	}
	if d.i < len(d.b) && d.b[d.i] == '.' {
		d.i++
		if digits() == 0 {
			return nil, d.errorf("bad fraction")
		}
	}
	if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.i++
		if d.i < len(d.b) && (d.b[d.i] == '+' || d.b[d.i] == '-') {
			d.i++
		}
		if digits() == 0 {
			return nil, d.errorf("bad exponent")
		}
	}
	return d.b[start:d.i], nil
}

func (d *wireDecoder) float() (float64, error) {
	tok, err := d.number()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, d.errorf("number %s out of range", tok)
	}
	return f, nil
}

func (d *wireDecoder) int() (int64, error) {
	tok, err := d.number()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		return 0, d.errorf("number %s is not a 64-bit integer", tok)
	}
	return n, nil
}

func (d *wireDecoder) bool() (bool, error) {
	switch {
	case d.literal("true"):
		return true, nil
	case d.literal("false"):
		return false, nil
	}
	return false, d.errorf("want true or false")
}

// literal consumes lit if it comes next.
func (d *wireDecoder) literal(lit string) bool {
	d.peek()
	if !bytes.HasPrefix(d.b[d.i:], []byte(lit)) {
		return false
	}
	d.i += len(lit)
	return true
}

// values reads a values object into m, creating the map when m is nil
// and otherwise adding to it, as encoding/json does with a repeated key.
func (d *wireDecoder) values(m map[string]float64) (map[string]float64, error) {
	if err := d.open('{'); err != nil {
		return m, err
	}
	if m == nil {
		m = make(map[string]float64)
	}
	for n := 0; ; n++ {
		key, more, err := d.member(n)
		if err != nil || !more {
			return m, err
		}
		v, err := d.float()
		if err != nil {
			return m, err
		}
		m[string(key)] = v
	}
}

// stages reads a stages object into st, allocating it when st is nil and
// otherwise overwriting the fields present, as encoding/json does.
func (d *wireDecoder) stages(st *trace.StageBreakdown) (*trace.StageBreakdown, error) {
	if err := d.open('{'); err != nil {
		return st, err
	}
	if st == nil {
		st = new(trace.StageBreakdown)
	}
	for n := 0; ; n++ {
		key, more, err := d.member(n)
		if err != nil || !more {
			return st, err
		}
		switch {
		case keyIs(key, "queue_wait"):
			st.QueueWait, err = d.float()
		case keyIs(key, "lock_wait"):
			st.LockWait, err = d.float()
		case keyIs(key, "exec"):
			st.Exec, err = d.float()
		case keyIs(key, "overhead"):
			st.Overhead, err = d.float()
		case keyIs(key, "total"):
			st.Total, err = d.float()
		default:
			err = d.skip(0)
		}
		if err != nil {
			return st, err
		}
	}
}

// skip reads and discards one JSON value of any kind, validating it.
func (d *wireDecoder) skip(depth int) error {
	if depth > maxSkipDepth {
		return d.errorf("nested too deep")
	}
	switch c := d.peek(); c {
	case '{', '[':
		closing := byte('}')
		if c == '[' {
			closing = ']'
		}
		d.i++
		for n := 0; ; n++ {
			c := d.peek()
			if c == closing {
				d.i++
				return nil
			}
			if n > 0 {
				if c != ',' {
					return d.errorf("want ',' or %q", closing)
				}
				d.i++
			}
			if closing == '}' {
				if err := d.skipString(); err != nil {
					return err
				}
				if err := d.open(':'); err != nil {
					return err
				}
			}
			if err := d.skip(depth + 1); err != nil {
				return err
			}
		}
	case '"':
		return d.skipString()
	case 't', 'f', 'n':
		if d.literal("true") || d.literal("false") || d.literal("null") {
			return nil
		}
		return d.errorf("bad literal")
	default:
		_, err := d.number()
		return err
	}
}

// skipString reads and discards any valid JSON string.
func (d *wireDecoder) skipString() error {
	if err := d.open('"'); err != nil {
		return err
	}
	for d.i < len(d.b) {
		c := d.b[d.i]
		d.i++
		switch {
		case c == '"':
			return nil
		case c < 0x20:
			return d.errorf("control byte in string")
		case c == '\\':
			if d.i >= len(d.b) {
				return d.errorf("unterminated string")
			}
			e := d.b[d.i]
			d.i++
			switch e {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if d.i+4 > len(d.b) {
					return d.errorf("short \\u escape")
				}
				for _, h := range d.b[d.i : d.i+4] {
					if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
						return d.errorf("bad \\u escape")
					}
				}
				d.i += 4
			default:
				return d.errorf("bad escape")
			}
		}
	}
	return d.errorf("unterminated string")
}

// keyIs reports whether key equals name, which is lower case, ignoring
// ASCII case as encoding/json's field matching does.
func keyIs(key []byte, name string) bool {
	if len(key) != len(name) {
		return false
	}
	for i, c := range key {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != name[i] {
			return false
		}
	}
	return true
}

// outcomeOf returns the outcome named s, sharing the constant's string
// for the five known outcomes.
func outcomeOf(s []byte) Outcome {
	for _, o := range [...]Outcome{OutcomeSuccess, OutcomeDSF, OutcomeDMF, OutcomeRejected, OutcomeCanceled} {
		if string(s) == string(o) {
			return o
		}
	}
	return Outcome(s)
}
