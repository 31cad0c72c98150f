package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"unitdb/internal/core"
	"unitdb/internal/core/ufm"
	"unitdb/internal/core/usm"
	"unitdb/internal/engine"
	"unitdb/internal/experiments/runner"
	"unitdb/internal/workload"
)

// SensitivityRow is one parameter value of the C_du sweep.
type SensitivityRow struct {
	CDu            float64
	USM            float64
	SuccessRatio   float64
	UpdatesApplied int
}

// SensitivityCDu reproduces the sensitivity analysis the paper cites from
// its technical report (§3.4.1: "sensitivity analysis in [17] has shown
// that the exact value of C_du does not have a significant effect to the
// average USM"): UNIT with naive weights on med-unif, sweeping the degrade
// step C_du.
func SensitivityCDu(cfg Config, values []float64) ([]SensitivityRow, error) {
	if len(values) == 0 {
		values = []float64{0.05, 0.1, 0.2, 0.4}
	}
	q, err := cfg.BuildQueryTrace()
	if err != nil {
		return nil, err
	}
	w, err := cfg.BuildCellTrace(q, workload.Med, workload.Uniform)
	if err != nil {
		return nil, err
	}
	return runner.Map(cfg.pool(), values, func(_ int, cdu float64) (SensitivityRow, error) {
		cell := fmt.Sprintf("cdu=%g", cdu)
		policySeed, engineSeed := cfg.CellSeeds("sens", cell)
		r, err := cfg.run(w, usm.Weights{}, policySeed, engineSeed, func(_ int, seed uint64) (engine.Policy, error) {
			pcfg := core.DefaultConfig(usm.Weights{})
			pcfg.Seed = seed
			pcfg.ModulatorOptions = []ufm.Option{
				ufm.WithConstants(ufm.DefaultCForget, cdu, ufm.DefaultCUu),
			}
			return core.New(pcfg), nil
		})
		if err != nil {
			return SensitivityRow{}, err
		}
		return SensitivityRow{
			CDu:            cdu,
			USM:            r.USM,
			SuccessRatio:   r.SuccessRatio,
			UpdatesApplied: r.UpdatesApplied,
		}, nil
	})
}

// Spread returns max−min USM across the rows — the sensitivity statistic.
func Spread(rows []SensitivityRow) float64 {
	if len(rows) == 0 {
		return 0
	}
	min, max := rows[0].USM, rows[0].USM
	for _, r := range rows[1:] {
		if r.USM < min {
			min = r.USM
		}
		if r.USM > max {
			max = r.USM
		}
	}
	return max - min
}

// WriteSensitivity renders the sweep.
func WriteSensitivity(w io.Writer, rows []SensitivityRow) error {
	fmt.Fprintln(w, "C_du sensitivity (UNIT, naive weights, med-unif)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "C_du\tUSM\tsuccess\tupdates applied")
	for _, r := range rows {
		fmt.Fprintf(tw, "%.2f\t%.4f\t%.3f\t%d\n", r.CDu, r.USM, r.SuccessRatio, r.UpdatesApplied)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "USM spread across C_du values: %.4f\n", Spread(rows))
	return nil
}
