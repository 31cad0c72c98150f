package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// recArena holds a run's records outside the Go heap. A rec has no
// pointers, so on the heap a run's records are a large block the collector
// never scans but counts as live: the heap target doubles, collections
// become rare, and the server under test is charged less for its garbage
// than it would be alone. Measured on http-closed: 68 us CPU per operation
// with the records on the heap, 88 us with them here.
type recArena struct{ mem []byte }

// newRecArena maps room for n records and returns it as an empty slice of
// capacity n. Appending beyond n falls back to the heap, which is safe.
func newRecArena(n int) (*recArena, []rec, error) {
	mem, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(rec{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, fmt.Errorf("map %d records: %w", n, err)
	}
	return &recArena{mem: mem}, unsafe.Slice((*rec)(unsafe.Pointer(&mem[0])), n)[:0], nil
}

// free unmaps the arena; no slice into it may be used afterwards.
func (a *recArena) free() error { return syscall.Munmap(a.mem) }
