// Package scenario is a library of named, seeded, end-to-end failure
// stories. Each scenario composes a workload shape (internal/workload),
// a fault schedule (internal/faults) and a client-behaviour model into
// one run, and asserts a recovery property on the result: the windowed
// USM may dip while the disturbance is active but must come back, the
// outcome accounting must conserve every presented query, and queues
// must stay bounded.
//
// Scenarios marked Deterministic are pure functions of their seed: the
// same seed replays the identical Report (reflect.DeepEqual) and, with a
// trace recorder attached, the identical event stream byte for byte.
// The live thundering-herd scenario drives a real HTTP server with
// retrying clients and is deliberately not bitwise-reproducible — its
// property holds with margins instead.
//
// cmd/unitscenario lists, describes and replays scenarios from the
// command line; scenario_test.go asserts every property in CI.
package scenario

import (
	"fmt"
	"sort"

	"unitdb/internal/core/usm"
	"unitdb/internal/faults"
	"unitdb/internal/obs/trace"
)

// RunConfig parameterizes one scenario run.
type RunConfig struct {
	// Seed is the master seed; every stream of the run (workload,
	// policy lottery, engine tie-breaking, client backoff) derives its
	// own sub-seed from it, so one integer replays the whole story.
	Seed uint64
	// Trace, when non-nil, captures the run's query lifecycle and
	// controller decisions (virtual-time stamped for deterministic
	// scenarios, wall-time for live ones).
	Trace *trace.Recorder
	// Shards is the story's shard count in the one runner,
	// engine.RunShardedDetail, weak-scaled: N shards are N CPUs, so the
	// trace carries N times the query and update volume while per-item
	// update periods stay fixed. One shard (or <= 1) is the plain engine.
	Shards int
}

// Scenario is one named failure story.
type Scenario struct {
	// Name identifies the scenario (kebab-case, stable across releases).
	Name string
	// Synopsis is a one-line summary for listings.
	Synopsis string
	// Story narrates what happens to whom: the workload shape, the fault
	// schedule and the client behaviour, in prose.
	Story string
	// Property states the asserted recovery property, in prose.
	Property string
	// Deterministic reports whether same-seed runs replay identically.
	Deterministic bool
	// Run executes the story and evaluates its property. It returns an
	// error only for harness failures (bad workload config, server boot
	// failure); a violated property is reported in Report.Property, not
	// as an error.
	Run func(RunConfig) (*Report, error)
}

// Check is one verified clause of a scenario property.
type Check struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// Property is the evaluated recovery property of one run.
type Property struct {
	Pass   bool    `json:"pass"`
	Checks []Check `json:"checks"`
}

// Window is one fixed-width virtual-time USM measurement window.
type Window struct {
	Index  int        `json:"index"`
	Start  float64    `json:"start"`
	End    float64    `json:"end"`
	Counts usm.Counts `json:"counts"`
	USM    float64    `json:"usm"`
}

// Summary condenses one run into the numbers the property reasons
// about. For a deterministic scenario the whole struct replays
// DeepEqual-identically per seed.
type Summary struct {
	Policy           string     `json:"policy,omitempty"`
	USM              float64    `json:"usm"`
	Counts           usm.Counts `json:"counts"`
	QueriesPresented int        `json:"queries_presented,omitempty"`
	UpdatesApplied   int        `json:"updates_applied,omitempty"`
	UpdatesDropped   int        `json:"updates_dropped,omitempty"`
	UpdatesLost      int        `json:"updates_lost,omitempty"`
	QueriesStalled   int        `json:"queries_stalled,omitempty"`
	QueriesAbandoned int        `json:"queries_abandoned,omitempty"`
	MaxQueueDepth    int        `json:"max_queue_depth,omitempty"`
	Events           int64      `json:"events,omitempty"`
	// Injection is the fault injector's tally (zero value for live
	// scenarios, which disturb themselves through client load).
	Injection faults.Counts `json:"injection"`

	// Live-scenario client accounting (zero for simulator scenarios).
	Attempts      int64   `json:"attempts,omitempty"`
	Retries       int64   `json:"retries,omitempty"`
	Giveups       int64   `json:"giveups,omitempty"`
	Amplification float64 `json:"amplification,omitempty"`
	QueriesShed   int     `json:"queries_shed,omitempty"`
}

// Report is the outcome of one scenario run.
type Report struct {
	Scenario      string   `json:"scenario"`
	Seed          uint64   `json:"seed"`
	Deterministic bool     `json:"deterministic"`
	Shards        int      `json:"shards,omitempty"`
	Summary       Summary  `json:"summary"`
	Windows       []Window `json:"windows,omitempty"`
	Property      Property `json:"property"`
}

// registry holds every Register'ed scenario by name. It is populated by
// package init functions and read-only afterwards, so lookups need no
// lock.
var registry = map[string]Scenario{}

// Register adds a scenario to the library. It panics on a duplicate or
// empty name — scenario names are part of the tool's CLI surface and
// must be unique.
func Register(s Scenario) {
	if s.Name == "" {
		panic("scenario: Register with empty name")
	}
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate name %q", s.Name))
	}
	if s.Run == nil {
		panic(fmt.Sprintf("scenario: %q has no Run", s.Name))
	}
	registry[s.Name] = s
}

// Get looks a scenario up by name.
func Get(name string) (Scenario, bool) {
	s, ok := registry[name]
	return s, ok
}

// Names returns every registered scenario name, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// evaluate folds a list of checks into a Property.
func evaluate(checks []Check) Property {
	p := Property{Pass: true, Checks: checks}
	for _, c := range checks {
		if !c.Pass {
			p.Pass = false
		}
	}
	return p
}

// checkf builds one named check with a formatted detail line.
func checkf(name string, pass bool, format string, args ...any) Check {
	return Check{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)}
}
