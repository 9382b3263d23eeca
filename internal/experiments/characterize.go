package experiments

import (
	"context"
	"fmt"

	"smtmlp/internal/bench"
	"smtmlp/internal/core"
	"smtmlp/internal/sim"
)

// TableIRow characterizes one benchmark on the 256-entry ROB single-thread
// baseline: long-latency loads per 1K instructions, MLP (Chou et al.), the
// performance impact of MLP (serialized vs parallel long-latency loads), and
// the resulting classification, next to the paper's reference values.
type TableIRow struct {
	Name     string
	LLLPer1K float64
	MLP      float64
	Impact   float64 // fraction of execution time removed by MLP
	Class    bench.Class
	IPC      float64
	PaperLLL float64
	PaperMLP float64
	PaperImp float64
	PaperCls bench.Class
}

// TableIResult is the Table I / Figure 1 characterization for all 26
// benchmarks.
type TableIResult struct {
	Rows []TableIRow
}

// TableI reproduces Table I (and Figure 1, whose bars are the MLP column):
// each benchmark runs alone on the baseline, once normally and once with
// long-latency loads artificially serialized; the CPI difference quantifies
// the MLP impact.
func TableI(ctx context.Context, r *sim.Runner) TableIResult {
	names := bench.Names()
	rows := make([]TableIRow, len(names))

	r.ForEach(ctx, len(names), func(i int) {
		name := names[i]
		b := bench.MustGet(name)
		cfg := core.DefaultConfig(1)
		_, par, err := r.RunSingleCtx(ctx, cfg, name)
		if err != nil {
			return
		}

		serCfg := cfg
		serCfg.Mem.SerializeLLL = true
		_, ser, err := r.RunSingleCtx(ctx, serCfg, name)
		if err != nil {
			return
		}

		cpiPar := 1 / par.IPC[0]
		cpiSer := 1 / ser.IPC[0]
		impact := 0.0
		if cpiSer > 0 {
			impact = (cpiSer - cpiPar) / cpiSer
		}
		if impact < 0 {
			impact = 0
		}
		cls := bench.ILP
		if impact > 0.10 {
			cls = bench.MLP
		}
		rows[i] = TableIRow{
			Name:     name,
			LLLPer1K: par.LLLPer1K[0],
			MLP:      par.MLP[0],
			Impact:   impact,
			Class:    cls,
			IPC:      par.IPC[0],
			PaperLLL: b.PaperLLLPer1K,
			PaperMLP: b.PaperMLP,
			PaperImp: b.PaperImpact,
			PaperCls: b.PaperClass,
		}
	})
	return TableIResult{Rows: rows}
}

// String renders the Table I reproduction with measured-vs-paper columns.
func (t TableIResult) String() string {
	tbl := Table{
		Title:  "Table I / Figure 1 — benchmark characterization (256-entry ROB, single thread)",
		Header: []string{"benchmark", "LLL/1K", "MLP", "MLP impact", "type", "IPC", "paper LLL/1K", "paper MLP", "paper impact", "paper type"},
	}
	for _, r := range t.Rows {
		tbl.AddRow(r.Name, f2(r.LLLPer1K), f2(r.MLP), pct(r.Impact), r.Class.String(), f2(r.IPC),
			f2(r.PaperLLL), f2(r.PaperMLP), pct(r.PaperImp), r.PaperCls.String())
	}
	tbl.Notes = append(tbl.Notes,
		"MLP impact = (CPI_serialized - CPI_parallel) / CPI_serialized; class = MLP when impact > 10% (Section 2)")
	return tbl.String()
}

// ClassAgreement counts benchmarks whose measured class matches the paper's.
func (t TableIResult) ClassAgreement() (match, total int) {
	for _, r := range t.Rows {
		if r.Class == r.PaperCls {
			match++
		}
	}
	return match, len(t.Rows)
}

// Figure4Result is the cumulative distribution of measured/predicted MLP
// distances for the six most MLP-intensive benchmarks (128-entry LLSR).
type Figure4Result struct {
	Benchmarks []string
	// CDF[b][d] is the cumulative fraction of LLSR updates of benchmark b
	// with distance <= d (only updates with a long-latency head load).
	CDF [][]float64
}

// Figure4 reproduces Figure 4: run each of the six most MLP-intensive
// programs single-threaded with a 128-entry LLSR and collect the
// distribution of MLP distances the predictor learns.
func Figure4(ctx context.Context, r *sim.Runner) Figure4Result {
	names := bench.MostMLPIntensive(6)
	out := Figure4Result{Benchmarks: names, CDF: make([][]float64, len(names))}
	r.ForEach(ctx, len(names), func(i int) {
		cfg := core.DefaultConfig(1)
		cfg.LLSRSize = 128 // the paper's Figure 4 setup
		c, _, err := r.RunSingleCtx(ctx, cfg, names[i])
		if err != nil {
			return
		}
		out.CDF[i] = histToCDF(c.MLPState(0).DistanceHist)
	})
	return out
}

// histToCDF converts a distance histogram into a cumulative distribution.
func histToCDF(hist []uint64) []float64 {
	var total uint64
	for _, n := range hist {
		total += n
	}
	cdf := make([]float64, len(hist))
	if total == 0 {
		return cdf
	}
	var cum uint64
	for i, n := range hist {
		cum += n
		cdf[i] = float64(cum) / float64(total)
	}
	return cdf
}

// String renders Figure 4 as CDF samples at selected distances.
func (f Figure4Result) String() string {
	points := []int{0, 10, 20, 30, 40, 60, 80, 100, 120, 127}
	tbl := Table{
		Title:  "Figure 4 — cumulative distribution of MLP distance (six most MLP-intensive, 128-entry LLSR)",
		Header: append([]string{"distance<="}, f.Benchmarks...),
	}
	for _, d := range points {
		row := []string{fmt.Sprintf("%d", d)}
		for i := range f.Benchmarks {
			v := 0.0
			if d < len(f.CDF[i]) {
				v = f.CDF[i][d]
			} else if n := len(f.CDF[i]); n > 0 {
				v = f.CDF[i][n-1]
			}
			row = append(row, pct(v))
		}
		tbl.AddRow(row...)
	}
	return tbl.String()
}

// Figure5Row is one benchmark's single-thread IPC with and without the
// hardware prefetcher.
type Figure5Row struct {
	Name          string
	IPCNoPrefetch float64
	IPCPrefetch   float64
	Speedup       float64
}

// Figure5Result reproduces Figure 5.
type Figure5Result struct {
	Rows []Figure5Row
	// HarmonicSpeedup is the harmonic-average IPC ratio (the paper reports
	// 20.2% on its setup).
	HarmonicSpeedup float64
}

// Figure5 runs every benchmark single-threaded with and without prefetching.
func Figure5(ctx context.Context, r *sim.Runner) Figure5Result {
	names := bench.Names()
	rows := make([]Figure5Row, len(names))
	r.ForEach(ctx, len(names), func(i int) {
		on := core.DefaultConfig(1)
		off := core.DefaultConfig(1)
		off.Mem.EnablePrefetch = false
		_, with, err := r.RunSingleCtx(ctx, on, names[i])
		if err != nil {
			return
		}
		_, without, err := r.RunSingleCtx(ctx, off, names[i])
		if err != nil {
			return
		}
		rows[i] = Figure5Row{
			Name:          names[i],
			IPCNoPrefetch: without.IPC[0],
			IPCPrefetch:   with.IPC[0],
			Speedup:       with.IPC[0]/without.IPC[0] - 1,
		}
	})

	// Harmonic mean of IPCs, then ratio (the paper's "harmonic average IPC
	// speed-up").
	var invOn, invOff float64
	for _, row := range rows {
		invOn += 1 / row.IPCPrefetch
		invOff += 1 / row.IPCNoPrefetch
	}
	return Figure5Result{Rows: rows, HarmonicSpeedup: invOff/invOn - 1}
}

// String renders Figure 5.
func (f Figure5Result) String() string {
	tbl := Table{
		Title:  "Figure 5 — single-threaded IPC with and without hardware prefetching",
		Header: []string{"benchmark", "IPC no-prefetch", "IPC prefetch", "speedup"},
	}
	for _, r := range f.Rows {
		tbl.AddRow(r.Name, f3(r.IPCNoPrefetch), f3(r.IPCPrefetch), pct(r.Speedup))
	}
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("harmonic-average IPC speedup from prefetching: %s (paper: 20.2%%)", pct(f.HarmonicSpeedup)))
	return tbl.String()
}

// PredictorRow carries the Figure 6/7/8 predictor statistics for one
// benchmark.
type PredictorRow struct {
	Name string

	// Figure 6: long-latency load predictor.
	HitMissAccuracy float64 // correct hit/miss predictions per load
	MissCoverage    float64 // correctly predicted misses per miss

	// Figure 7: binary MLP prediction at LLSR-update time.
	TP, TN, FP, FN float64
	HasMLPData     bool

	// Figure 8: far-enough distance predictions.
	FarEnough float64
}

// PredictorsResult reproduces Figures 6, 7 and 8 from one characterization
// run per benchmark (single-threaded baseline, 128-entry LLSR).
type PredictorsResult struct {
	Rows []PredictorRow
}

// Predictors runs the predictor characterization behind Figures 6-8.
func Predictors(ctx context.Context, r *sim.Runner) PredictorsResult {
	names := bench.Names()
	rows := make([]PredictorRow, len(names))
	r.ForEach(ctx, len(names), func(i int) {
		cfg := core.DefaultConfig(1)
		cfg.LLSRSize = 128
		c, _, err := r.RunSingleCtx(ctx, cfg, names[i])
		if err != nil {
			return
		}
		st := c.MLPState(0)
		row := PredictorRow{
			Name:            names[i],
			HitMissAccuracy: st.MissPattern.Accuracy(),
			MissCoverage:    st.MissPattern.MissCoverage(),
		}
		if tp, tn, fp, fn, ok := st.BinaryAccuracy(); ok {
			row.TP, row.TN, row.FP, row.FN = tp, tn, fp, fn
			row.HasMLPData = true
		}
		if fe, ok := st.FarEnoughAccuracy(); ok {
			row.FarEnough = fe
		}
		rows[i] = row
	})
	return PredictorsResult{Rows: rows}
}

// Figure6String renders the long-latency load predictor accuracy.
func (p PredictorsResult) Figure6String() string {
	tbl := Table{
		Title:  "Figure 6 — long-latency load (miss pattern) predictor accuracy",
		Header: []string{"benchmark", "hit/miss accuracy", "miss coverage"},
	}
	var accs []float64
	for _, r := range p.Rows {
		tbl.AddRow(r.Name, pct(r.HitMissAccuracy), pct(r.MissCoverage))
		accs = append(accs, r.HitMissAccuracy)
	}
	var sum float64
	for _, a := range accs {
		sum += a
	}
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("average hit/miss accuracy: %s (paper: 99.4%%, no benchmark below 94%%)", pct(sum/float64(len(accs)))))
	return tbl.String()
}

// Figure7String renders the binary MLP prediction quality.
func (p PredictorsResult) Figure7String() string {
	tbl := Table{
		Title:  "Figure 7 — MLP predictor: binary MLP prediction (fractions of LLSR updates)",
		Header: []string{"benchmark", "true pos", "true neg", "false pos", "false neg", "accuracy"},
	}
	var accSum float64
	var n int
	for _, r := range p.Rows {
		if !r.HasMLPData {
			tbl.AddRow(r.Name, "-", "-", "-", "-", "- (no long-latency loads)")
			continue
		}
		acc := r.TP + r.TN
		tbl.AddRow(r.Name, pct(r.TP), pct(r.TN), pct(r.FP), pct(r.FN), pct(acc))
		accSum += acc
		n++
	}
	if n > 0 {
		tbl.Notes = append(tbl.Notes,
			fmt.Sprintf("average binary MLP prediction accuracy: %s (paper: 91.5%%)", pct(accSum/float64(n))))
	}
	return tbl.String()
}

// Figure8String renders the far-enough MLP distance accuracy.
func (p PredictorsResult) Figure8String() string {
	tbl := Table{
		Title:  "Figure 8 — MLP distance predictor: far-enough predictions",
		Header: []string{"benchmark", "far-enough accuracy"},
	}
	var sum float64
	var n int
	for _, r := range p.Rows {
		if !r.HasMLPData {
			tbl.AddRow(r.Name, "- (no long-latency loads)")
			continue
		}
		tbl.AddRow(r.Name, pct(r.FarEnough))
		sum += r.FarEnough
		n++
	}
	if n > 0 {
		tbl.Notes = append(tbl.Notes,
			fmt.Sprintf("average far-enough accuracy: %s (paper: 87.8%%)", pct(sum/float64(n))))
	}
	return tbl.String()
}
