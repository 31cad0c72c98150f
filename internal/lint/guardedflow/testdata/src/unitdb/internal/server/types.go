// Fixture for guardedflow, part 1 of a two-file package: the annotated
// struct lives here, the methods in methods.go — collection must work
// across files.
package server

import "sync"

type Queue struct {
	mu sync.Mutex

	items   []int // guarded by mu
	total   int   // guarded by mu
	victims int   // guarded by mu
	// guarded by mu
	drops int
	// hits counts Async calls. // guarded by mu
	hits int

	rw   sync.RWMutex
	view []int // guarded by rw
}
