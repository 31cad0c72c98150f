package experiments

import (
	"unitdb/internal/engine"
	"unitdb/internal/workload"
)

// ArtifactCell is one compact digest row of a sweep artifact: the cell's
// stable name, its USM and the raw outcome counts. The counts let the
// digest double as an accounting fixture — Success+Reject+DMF+DSF must
// equal the submitted query total, and recomputing Eq. 5 from them must
// reproduce USM exactly.
type ArtifactCell struct {
	Cell    string  `json:"cell"`
	USM     float64 `json:"usm"`
	Success int     `json:"success"`
	Reject  int     `json:"reject"`
	DMF     int     `json:"dmf"`
	DSF     int     `json:"dsf"`
}

// Fig3Digest is the compact form of one Figure 3 case study.
type Fig3Digest struct {
	Trace       string  `json:"trace"`
	Original    int     `json:"original_updates"`
	Applied     int     `json:"applied_updates"`
	Dropped     int     `json:"dropped_updates"`
	Correlation float64 `json:"applied_query_correlation"`
}

// Summary digests every artifact of one experiment run into a stable,
// JSON-friendly form, which the golden replication test pins
// byte-for-byte for the QuickConfig suite (sequential and parallel).
type Summary struct {
	Table1      []Table1Row      `json:"table1"`
	Fig3        []Fig3Digest     `json:"fig3"`
	Fig4        []ArtifactCell   `json:"fig4"`
	Fig5        []ArtifactCell   `json:"fig5"`
	Fig6        []Fig6Row        `json:"fig6"`
	Sensitivity []SensitivityRow `json:"sensitivity"`
}

func digestCell(name string, usmValue float64, r *engine.Results) ArtifactCell {
	return ArtifactCell{
		Cell:    name,
		USM:     usmValue,
		Success: r.Counts.Success,
		Reject:  r.Counts.Rejected,
		DMF:     r.Counts.DMF,
		DSF:     r.Counts.DSF,
	}
}

// BuildSummary runs every artifact driver at cfg and digests the results.
// The digest is a pure function of the config (including its seeds), so
// two runs with equal configs — at any Workers setting — produce
// DeepEqual-identical summaries.
func BuildSummary(cfg Config) (*Summary, error) {
	s := &Summary{}

	t1, err := Table1(cfg)
	if err != nil {
		return nil, err
	}
	s.Table1 = t1

	for _, d := range []workload.Distribution{workload.Uniform, workload.NegativeCorrelation} {
		f, err := Fig3(cfg, workload.Med, d)
		if err != nil {
			return nil, err
		}
		s.Fig3 = append(s.Fig3, Fig3Digest{
			Trace:       f.Trace,
			Original:    f.TotalOriginal,
			Applied:     f.TotalApplied,
			Dropped:     f.TotalDropped,
			Correlation: f.AppliedQueryCorrelation,
		})
	}

	f4, err := Fig4(cfg)
	if err != nil {
		return nil, err
	}
	for _, c := range f4.Cells {
		s.Fig4 = append(s.Fig4, digestCell(c.Trace+"/"+string(c.Policy), c.USM, c.Results))
	}

	f5, err := Fig5(cfg)
	if err != nil {
		return nil, err
	}
	for _, c := range f5.Cells {
		s.Fig5 = append(s.Fig5, digestCell(c.Setting.Name+"/"+string(c.Policy), c.USM, c.Results))
	}
	s.Fig6 = Fig6(f5)

	rows, err := SensitivityCDu(cfg, nil)
	if err != nil {
		return nil, err
	}
	s.Sensitivity = rows

	return s, nil
}
