// Fixture for guardedflow, part 2: methods of the struct declared in
// types.go. Clean methods pin false-positive behaviour; want-lines pin
// the findings.
package server

// The canonical patterns stay clean.
func (q *Queue) Push(v int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.items = append(q.items, v)
	q.total++
}

func (q *Queue) Total() int {
	q.mu.Lock()
	n := q.total
	q.mu.Unlock()
	return n
}

// Held through a loop: the head condition and the body access both see
// the mutex held on every path.
func (q *Queue) DrainAll() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for len(q.items) > 0 {
		q.items = q.items[1:]
		n++
	}
	return n
}

// The method locks mu, but the access happens after the unlock.
func (q *Queue) AfterUnlock() int {
	q.mu.Lock()
	q.mu.Unlock()
	return q.total // want `q\.total is guarded by "mu" but q\.mu is not provably held here`
}

// One branch releases before touching the field.
func (q *Queue) FlushRace(flush bool) {
	q.mu.Lock()
	if flush {
		q.mu.Unlock()
		q.items = nil // want `q\.items is guarded by "mu"`
		return
	}
	q.mu.Unlock()
}

// Locking in only one branch is not proof: the merge point holds the
// unlocked path too.
func (q *Queue) MaybeGuard(careful bool) {
	if careful {
		q.mu.Lock()
	}
	q.victims++ // want `q\.victims is guarded by "mu"`
	if careful {
		q.mu.Unlock()
	}
}

// *Locked convention: the caller holds mu, so accesses are fine...
func (q *Queue) drainLocked() []int {
	out := q.items
	q.items = nil
	return out
}

// ...but a *Locked method that releases the caller's lock early is still
// checked against the flow.
func (q *Queue) leakyLocked() int {
	q.mu.Unlock()
	return q.total // want `q\.total is guarded by "mu"`
}

// The annotation on the line above the field counts too.
func (q *Queue) Drops() int {
	return q.drops // want `q\.drops is guarded by "mu" but q\.mu is not provably held here`
}

// Holding the struct's other mutex proves nothing about mu's fields.
func (q *Queue) Peek() int {
	q.rw.RLock()
	defer q.rw.RUnlock()
	_ = q.view     // rw is held: fine
	return q.total // want `q\.total is guarded by "mu" but q\.mu is not provably held here`
}

// A closure runs under its call site's lock regime, so it only needs
// the enclosing method to lock mu somewhere...
func (q *Queue) PopWith(f func(func() int) int) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return f(func() int { return q.total })
}

// ...and is a finding in a method that never does.
func (q *Queue) observer() func() int {
	return func() int { return q.total } // want `q\.total is guarded by "mu" but method Queue\.observer never locks q\.mu`
}

// The annotation trailing a longer doc sentence counts too.
func (q *Queue) Async() func() {
	return func() {
		q.hits++ // want `q\.hits is guarded by "mu" but method Queue\.Async never locks q\.mu`
	}
}

// A method of an unannotated struct is out of scope entirely.
type plain struct{ n int }

func (p *plain) bump() { p.n++ }
