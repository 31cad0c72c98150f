package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"testing"
	"time"

	"unitdb/internal/obs/trace"
)

// FuzzQueryParam: queryParam answers what r.URL.Query().Get(key) answers,
// that is url.ParseQuery(raw).Get(key) with the error ignored, on any
// query string and key.
func FuzzQueryParam(f *testing.F) {
	for _, seed := range []struct{ raw, key string }{
		{"items=1,2&deadline=200000000ns&freshness=0.9", "items"},
		{"items=1%2C2&deadline=200ms", "items"},
		{"a=1&a=2", "a"},
		{"a=%zz&a=2", "a"},
		{"a%zz=1&a=3", "a"},
		{"a;b=1&a=3", "a"},
		{"a=1;b&a=3", "a"},
		{"+a+=+b+", " a "},
		{"%61=%62", "a"},
		{"&&a&=x&a=1", "a"},
		{"a", "a"},
		{"value=1e%2B06", "value"},
		{"value=1e+06", "value"},
		{"", ""},
		{"=1", ""},
		{"%zz=1&=3", ""},
	} {
		f.Add(seed.raw, seed.key)
	}
	f.Fuzz(func(t *testing.T, raw, key string) {
		vals, _ := url.ParseQuery(raw)
		if got, want := queryParam(raw, key), vals.Get(key); got != want {
			t.Fatalf("queryParam(%q, %q) = %q, url.ParseQuery gives %q", raw, key, got, want)
		}
	})
}

// wireOutcomes and wireFloats feed FuzzQueryResponseWire: every outcome,
// and the floats where encoding/json's format turns (signed zero, the
// smallest subnormal, both sides of the 1e-6 and 1e21 switches to
// exponent form, the largest finite value).
var (
	wireOutcomes = []Outcome{OutcomeSuccess, OutcomeDSF, OutcomeDMF, OutcomeRejected, OutcomeCanceled}
	wireFloats   = []float64{
		0, math.Copysign(0, -1), 5e-324, 1e-7, -2.5e-8, 9.99e-7, 1e-6,
		0.9, 1, 42.125, 1.0 / 3, 123456789.125, 1e20, 1e21, -1e21, math.MaxFloat64,
	}
)

// wireResponse builds a QueryResponse from fuzz input: outcome picks one
// of the five, n%9 values keyed by consecutive ids from firstKey (so "9"
// sorts after "10"), each 4-bit nibble of pick chooses a special float or
// else v, and stages attaches a breakdown.
func wireResponse(outcome, n uint8, firstKey uint16, v, fresh float64, latency, query int64, stages bool, pick uint64) QueryResponse {
	float := func(i int) float64 {
		if p := int(pick >> (4 * (i % 16)) & 15); p < len(wireFloats) {
			return wireFloats[p]
		}
		return v
	}
	resp := QueryResponse{
		Outcome:   wireOutcomes[int(outcome)%len(wireOutcomes)],
		Freshness: fresh,
		Latency:   time.Duration(latency),
		Query:     query,
	}
	if k := int(n % 9); k > 0 {
		resp.Values = make(map[string]float64, k)
		for i := 0; i < k; i++ {
			resp.Values[strconv.Itoa(int(firstKey)+i)] = float(i)
		}
	}
	if stages {
		resp.Stages = &trace.StageBreakdown{QueueWait: float(8), LockWait: float(9), Exec: float(10), Overhead: float(11), Total: float(12)}
	}
	return resp
}

// FuzzQueryResponseWire: appendQueryResponse writes exactly the bytes
// json.NewEncoder(w).Encode writes (json.Marshal plus a newline), fails
// exactly when encoding/json does, and decodeQueryResponse gives back the
// value encoded.
func FuzzQueryResponseWire(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint16(17), 42.125, 1.0, int64(52000), int64(9), true, uint64(0xffff_ffff_ffff_ffff))
	f.Add(uint8(1), uint8(3), uint16(8), 0.5, 0.9, int64(0), int64(0), false, uint64(0xfedc_ba98_7654_3210))
	f.Add(uint8(2), uint8(8), uint16(3), -7.75, 0.25, int64(-1), int64(1)<<40, true, uint64(0x0123_4567_89ab_cdef))
	f.Add(uint8(3), uint8(0), uint16(0), 0.0, 0.0, int64(3e9), int64(0), false, uint64(0))
	f.Add(uint8(4), uint8(2), uint16(9), math.NaN(), 1.0, int64(5), int64(1), false, uint64(0xff))
	f.Fuzz(func(t *testing.T, outcome, n uint8, firstKey uint16, v, fresh float64, latency, query int64, stages bool, pick uint64) {
		resp := wireResponse(outcome, n, firstKey, v, fresh, latency, query, stages, pick)
		want, werr := json.Marshal(&resp)
		got, gerr := appendQueryResponse(nil, &resp)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("%+v: encoding/json error %v, appendQueryResponse error %v", resp, werr, gerr)
		}
		if werr != nil {
			return
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Fatalf("%+v:\n got %s\nwant %s", resp, got, want)
		}
		back, err := decodeQueryResponse(got)
		if err != nil {
			t.Fatalf("decoding %s: %v", got, err)
		}
		if !reflect.DeepEqual(back, resp) {
			t.Fatalf("%s decoded to %+v, encoded from %+v", got, back, resp)
		}
	})
}

// FuzzDecodeWire runs the two decoders on arbitrary bytes: whenever one
// accepts, json.Unmarshal accepts too and gives a DeepEqual value.
func FuzzDecodeWire(f *testing.F) {
	for _, seed := range []string{
		`{"outcome":"success","values":{"10":1,"9":-0},"freshness":1,"latency_ns":52000,"query":9,"stages":{"queue_wait":1e-7,"lock_wait":0,"exec":5e-324,"overhead":1e21,"total":1.7976931348623157e308}}` + "\n",
		` { "query" : 3 , "Outcome" : "rejected" , "LATENCY_NS" : -0 , "freshness" : 0 } `,
		`{"values":{},"stages":{},"stages":{"exec":2},"values":{"1":1},"values":{"1":2,"2":3}}`,
		`{"values":{"7":1},"stages":{"exec":1},"values":{"8":2},"stages":{"total":2}}`,
		`{"outcome":"data-stale","extra":[1,{"a":[true,false,null]},"\u00e9\n\"",-1.5e+3],"freshness":0.5}`,
		`{"outcome":"suc\u0063ess"}`,
		`{"outcome":null}`,
		`{"values":null}`,
		`{"latency_ns":1.5}`,
		`{"freshness":1e400}`,
		`{"freshness":01}`,
		`{"freshness":.5}`,
		`{"outcome":"x",}`,
		`{"outcome":"x"} {}`,
		"{}\x00",
		`{"applied":true}` + "\n",
		`{"applied":false,"Applied":true}`,
		`{"applied":null}`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if got, err := decodeQueryResponse(b); err == nil {
			var want QueryResponse
			if err := json.Unmarshal(b, &want); err != nil {
				t.Fatalf("decodeQueryResponse accepted %q, json.Unmarshal refuses it: %v", b, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%q: decodeQueryResponse gives %+v, json.Unmarshal %+v", b, got, want)
			}
		}
		if applied, err := decodeUpdateAck(b); err == nil {
			var want struct {
				Applied bool `json:"applied"`
			}
			if err := json.Unmarshal(b, &want); err != nil {
				t.Fatalf("decodeUpdateAck accepted %q, json.Unmarshal refuses it: %v", b, err)
			}
			if applied != want.Applied {
				t.Fatalf("%q: decodeUpdateAck gives %v, json.Unmarshal %v", b, applied, want.Applied)
			}
		}
	})
}

// TestAppendJSONStringMatchesEncodingJSON covers the strings the fuzz
// target's fixed outcomes and decimal keys never reach: anything needing
// an escape falls back to encoding/json.
func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{"", "success", "17", `a"b\c`, "<&>", "tab\there", " ", "é", "\xff"} {
		want, _ := json.Marshal(s)
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
	}
}

// recordingBackend is a handler backend that keeps the last request the
// handler decoded. Only the two hot methods are implemented; the embedded
// nil backend panics if anything else is reached.
type recordingBackend struct {
	backend
	query  QueryRequest
	update UpdateRequest
}

func (r *recordingBackend) QueryCtx(_ context.Context, req QueryRequest) QueryResponse {
	r.query = req
	return QueryResponse{Outcome: OutcomeSuccess, Freshness: 1}
}

func (r *recordingBackend) Update(req UpdateRequest) (bool, error) {
	r.update = req
	return true, nil
}

// TestClientRequestsArriveExactly sends requests through Client to the
// real handler and checks that the handler decodes exactly what was sent:
// durations to the nanosecond, floats bit for bit (including exponents
// whose '+' must be escaped, and -0), and a full 64-item list.
func TestClientRequestsArriveExactly(t *testing.T) {
	rec := &recordingBackend{}
	ts := httptest.NewServer(newHandler(rec))
	defer ts.Close()
	c := NewClient(ts.URL, nil)

	full := make([]int, MaxQueryItems)
	for i := range full {
		full[i] = 1000 + 37*i
	}
	for _, want := range []QueryRequest{
		{Items: []int{3}, Deadline: time.Second, Freshness: 0.9},
		{Items: []int{0, 17, 1023}, Deadline: 200 * time.Millisecond, Work: 20 * time.Millisecond, Freshness: 1},
		{Items: full, Deadline: 1234567891 * time.Nanosecond, Work: time.Nanosecond, Freshness: 1e-7},
		{Items: []int{9, 10}, Deadline: math.MaxInt64, Freshness: 0.1 + 0.2},
		{Items: []int{5}, Deadline: time.Nanosecond},
	} {
		rec.query = QueryRequest{}
		if _, err := c.Query(want); err != nil {
			t.Fatalf("query %+v: %v", want, err)
		}
		if got := rec.query; !reflect.DeepEqual(got, want) {
			t.Errorf("query arrived as %+v, sent %+v", got, want)
		}
	}
	for _, want := range []UpdateRequest{
		{Item: 3, Value: 1e+06},
		{Item: 5, Value: -2.5e-08, Work: 5 * time.Millisecond},
		{Item: 0, Value: math.Copysign(0, -1)},
		{Item: 7, Value: 5e-324, Work: time.Nanosecond},
		{Item: 8, Value: math.MaxFloat64},
		{Item: 9, Value: -1e21},
		{Item: 10, Value: 0.1 + 0.2},
		{Item: 11, Value: 42.125},
	} {
		rec.update = UpdateRequest{}
		if _, err := c.Update(want); err != nil {
			t.Fatalf("update %+v: %v", want, err)
		}
		got := rec.update
		if got.Item != want.Item || got.Work != want.Work || math.Float64bits(got.Value) != math.Float64bits(want.Value) {
			t.Errorf("update arrived as %+v, sent %+v", got, want)
		}
	}
}

// TestDecodeQueryResponseTolerance pins what the decoder reads beyond its
// own encoder's output, and what it refuses rather than guess at.
func TestDecodeQueryResponseTolerance(t *testing.T) {
	for _, ok := range []string{
		` { "query" : 3 , "Outcome" : "rejected" , "LATENCY_NS" : -0 , "freshness" : 0 } `,
		`{"freshness":0.5,"outcome":"data-stale","extra":[1,{"a":[true,false,null]},"é\n\"",-1.5e+3]}`,
		`{"stages":{"total":2,"future":{}},"values":{"9":1,"10":2}}`,
		`{}`,
	} {
		if _, err := decodeQueryResponse([]byte(ok)); err != nil {
			t.Errorf("refused %s: %v", ok, err)
		}
	}
	for _, bad := range []string{
		`{"outcome":"suc\u0063ess"}`, `{"outcome":"é"}`, `{"outcome":null}`, `{"values":null}`,
		`{"latency_ns":1.5}`, `{"freshness":1e400}`, `{"freshness":01}`, `{"freshness":.5}`,
		`{"outcome":"x",}`, `{"outcome":"x"} {}`, "{}\x00", "{\"extra\":\"\x01\"}", `[]`, ``,
	} {
		if resp, err := decodeQueryResponse([]byte(bad)); err == nil {
			t.Errorf("accepted %s as %+v", bad, resp)
		}
	}
}
