package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// newLoopbackClient serves a default-config server on a loopback socket
// and returns a Client held to one keep-alive connection, the shape of
// the repository benchmark's http-closed workload: every call crosses
// the whole wire path (request build, net/http both ways, handler parse,
// response encode, client decode) with zero work behind it.
func newLoopbackClient(tb testing.TB) *Client {
	tb.Helper()
	s, err := New(DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	tb.Cleanup(func() {
		tr.CloseIdleConnections()
		ts.Close()
		s.Close()
	})
	return NewClient(ts.URL, &http.Client{Transport: tr})
}

// benchQuery and benchUpdate are the http-closed request shapes: a
// single-item zero-work query and a feed write.
var (
	benchQuery  = QueryRequest{Items: []int{17}, Deadline: time.Second, Freshness: 0.9}
	benchUpdate = UpdateRequest{Item: 17, Value: 42.125}
)

// BenchmarkHTTPQuery times one /query round trip through Client. Its
// allocs/op count both ends, since the server runs in-process.
func BenchmarkHTTPQuery(b *testing.B) {
	c := newLoopbackClient(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Query(benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHTTPUpdate times one /update round trip through Client.
func BenchmarkHTTPUpdate(b *testing.B) {
	c := newLoopbackClient(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Update(benchUpdate); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHTTPMix is the http-closed mix on one connection: queries,
// with every 16th call an update. make profile-live profiles it.
func BenchmarkHTTPMix(b *testing.B) {
	c := newLoopbackClient(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if i%16 == 15 {
			_, err = c.Update(benchUpdate)
		} else {
			_, err = c.Query(benchQuery)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
