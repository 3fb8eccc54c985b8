package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/gformat"
	"repro/internal/recvec"
)

// Fig13Row is one ablation cell.
type Fig13Row struct {
	Idea1, Idea2, Idea3 bool
	Elapsed             time.Duration
}

// Fig13Result is the key-idea ablation of Figure 13: all 2³
// combinations of (Idea#1 reuse RecVec, Idea#2 sparse recursion,
// Idea#3 single random value) at one scale.
type Fig13Result struct {
	Scale int
	Rows  []Fig13Row
}

// Fig13 runs the ablation (paper: Scale 27; default here Scale 18),
// single-threaded so cell times are comparable.
func Fig13(scale int) (*Fig13Result, error) {
	if scale == 0 {
		scale = 18
	}
	res := &Fig13Result{Scale: scale}
	for _, i1 := range []bool{false, true} {
		for _, i2 := range []bool{false, true} {
			for _, i3 := range []bool{false, true} {
				cfg := core.DefaultConfig(scale)
				cfg.MasterSeed = 601
				// The ablation varies the RecVec descent, the paper's
				// sampler, not the chunk default.
				cfg.Sampler = core.SamplerRecVec
				cfg.Opts = recvec.Options{
					ReuseVector:     i1,
					SparseRecursion: i2,
					SingleRandom:    i3,
				}
				st, err := core.GenerateSeq(cfg, core.DiscardSinks(gformat.ADJ6))
				if err != nil {
					return nil, fmt.Errorf("fig13 %v%v%v: %w", i1, i2, i3, err)
				}
				res.Rows = append(res.Rows, Fig13Row{
					Idea1: i1, Idea2: i2, Idea3: i3, Elapsed: st.Elapsed,
				})
			}
		}
	}
	return res, nil
}

// Time returns the cell time of one combination.
func (r *Fig13Result) Time(i1, i2, i3 bool) time.Duration {
	for _, row := range r.Rows {
		if row.Idea1 == i1 && row.Idea2 == i2 && row.Idea3 == i3 {
			return row.Elapsed
		}
	}
	return 0
}

// Report renders the ablation in the paper's bar order (Idea#1 off
// block first, X/O flags per idea).
func (r *Fig13Result) Report() Report {
	rep := Report{
		Title:   fmt.Sprintf("Figure 13 — breakdown of the three key ideas (Scale %d, 1 thread)", r.Scale),
		Columns: []string{"Idea#1 reuse", "Idea#2 sparse", "Idea#3 1-rand", "time", "speedup vs none"},
		Notes: []string{
			"Idea#1 dominates; Ideas #2 and #3 compound once the vector is reused (paper: 3.38x then 2.47x).",
		},
	}
	base := r.Time(false, false, false)
	flag := func(b bool) string {
		if b {
			return "O"
		}
		return "X"
	}
	for _, i1 := range []bool{false, true} {
		for _, i2 := range []bool{false, true} {
			for _, i3 := range []bool{false, true} {
				t := r.Time(i1, i2, i3)
				sp := "-"
				if base > 0 && t > 0 {
					sp = fmt.Sprintf("%.2fx", float64(base)/float64(t))
				}
				rep.Rows = append(rep.Rows, []string{
					flag(i1), flag(i2), flag(i3), fmtDur(t), sp,
				})
			}
		}
	}
	return rep
}
