package unit

import (
	"testing"
	"time"

	"unitdb/internal/core"
	"unitdb/internal/core/ufm"
	"unitdb/internal/engine"
	"unitdb/internal/workload"
)

// tinyConfig is small enough for unit tests.
func tinyConfig() Config {
	c := QuickConfig()
	c.Query.NumQueries = 1500
	c.Query.Duration = 6000
	return c
}

func TestRunDefaults(t *testing.T) {
	cfg := tinyConfig()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Policy != "UNIT" {
		t.Fatalf("default policy = %s", r.Policy)
	}
	if r.Counts.Total() != cfg.Query.NumQueries {
		t.Fatalf("outcomes = %d", r.Counts.Total())
	}
	if r.Trace != "med-unif" {
		t.Fatalf("trace = %s", r.Trace)
	}
}

func TestRunAllPolicies(t *testing.T) {
	cfg := tinyConfig()
	for _, p := range []PolicyName{PolicyIMU, PolicyODU, PolicyQMF, PolicyUNIT} {
		cfg.Policy = p
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if r.Policy != string(p) {
			t.Fatalf("ran %s, got results for %s", p, r.Policy)
		}
	}
}

func TestRunUnknownPolicy(t *testing.T) {
	cfg := tinyConfig()
	cfg.Policy = "nonsense"
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestCompareSharesWorkload(t *testing.T) {
	cfg := tinyConfig()
	rs, err := Compare(cfg, PolicyIMU, PolicyUNIT)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Policy != "IMU" || rs[1].Policy != "UNIT" {
		t.Fatalf("results order: %v %v", rs[0].Policy, rs[1].Policy)
	}
	if rs[0].Counts.Total() != rs[1].Counts.Total() {
		t.Fatal("policies saw different workloads")
	}
	// Default comparison covers all four.
	all, err := Compare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 {
		t.Fatalf("default Compare ran %d policies", len(all))
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := tinyConfig()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.USM != b.USM || a.Counts != b.Counts {
		t.Fatalf("identical configs diverged: %v vs %v", a.Counts, b.Counts)
	}
}

// TestAblationPairs pins the two engine-level ablations on the
// QuickConfig med-unif trace: UNIT against the admit-everything,
// apply-everything policy (IMU), and UFM's lottery victim selection (the
// paper's choice, §5) against deterministic stride scheduling. Both runs
// are deterministic, so the USMs are pinned exactly.
func TestAblationPairs(t *testing.T) {
	cfg := QuickConfig()
	w, err := BuildWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	policyUSM := func(p PolicyName) float64 {
		c := cfg
		c.Policy = p
		r, err := RunWorkload(c, w)
		if err != nil {
			t.Fatal(err)
		}
		return r.USM
	}
	victimUSM := func(opts ...ufm.Option) float64 {
		pcfg := core.DefaultConfig(Weights{})
		pcfg.ModulatorOptions = opts
		e, err := engine.New(engine.NewConfig(w, Weights{}, 7), core.New(pcfg))
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r.USM
	}
	unitUSM, noControl := policyUSM(PolicyUNIT), policyUSM(PolicyIMU)
	lottery, stride := victimUSM(), victimUSM(ufm.WithStrideSelection(0))

	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"UNIT", unitUSM, 0.6},
		{"no-control", noControl, 0.24909090909090909},
		{"lottery", lottery, 0.6},
		{"stride", stride, 0.5871818181818181},
	} {
		if c.got != c.want {
			t.Errorf("USM(%s) = %v, want %v", c.name, c.got, c.want)
		}
	}
	if unitUSM <= noControl {
		t.Errorf("USM(UNIT) %v not above USM(no-control) %v", unitUSM, noControl)
	}
	if lottery <= stride {
		t.Errorf("USM(lottery) %v not above USM(stride) %v", lottery, stride)
	}
}

func TestUpdateOverride(t *testing.T) {
	cfg := tinyConfig()
	u := workload.DefaultUpdateConfig(Low, Uniform)
	u.CountMultiplier = 3
	cfg.Update = &u
	w, err := BuildWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := tinyConfig()
	base.Volume, base.Distribution = Low, Uniform
	bw, err := BuildWorkload(base)
	if err != nil {
		t.Fatal(err)
	}
	if w.TotalSourceUpdates() <= bw.TotalSourceUpdates() {
		t.Fatal("update override ignored")
	}
}

func TestLiveServerFacade(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.NumItems = 8
	cfg.Workers = 1
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if ok, err := srv.Update(UpdateRequest{Item: 1, Value: 3.5}); err != nil || !ok {
		t.Fatalf("update: %v %v", ok, err)
	}
	resp := srv.Query(QueryRequest{Items: []int{1}, Deadline: time.Second})
	if resp.Values["1"] != 3.5 {
		t.Fatalf("read %v", resp.Values)
	}
}
