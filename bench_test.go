package trilliong

// One benchmark per table and figure of the paper's evaluation. Each
// bench runs the corresponding experiment from internal/experiments at
// a laptop scale and reports the domain metric (edges/sec, ns/edge,
// simulated seconds) alongside Go's timing. `go test -bench=.` at the
// repository root regenerates every row the paper reports; the
// experiment CLI (cmd/experiments) prints the full tables.

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gformat"
)

// BenchmarkTable1_ComplexitySweep reproduces Table 1's empirical
// time/space comparison of WES, AES, FastKronecker and AVS.
func BenchmarkTable1_ComplexitySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1([]int{12, 14})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MemGrowth("WES (RMAT-mem)"), "wes-mem-x/scale")
		b.ReportMetric(res.MemGrowth("AVS (TrillionG)"), "avs-mem-x/scale")
	}
}

// BenchmarkTable2_CDFvsRecVec reproduces Table 2's search comparison.
func BenchmarkTable2_CDFvsRecVec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2([]int{16}, 100000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Cell("CDF vector", "linear", 16), "cdf-linear-ns/edge")
		b.ReportMetric(res.Cell("CDF vector", "binary", 16), "cdf-binary-ns/edge")
		b.ReportMetric(res.Cell("RecVec", "scan", 16), "recvec-scan-ns/edge")
		b.ReportMetric(res.Cell("RecVec", "linear", 16), "recvec-linear-ns/edge")
	}
}

// BenchmarkTable3_SeedToDistribution reproduces Table 3's seed→slope map.
func BenchmarkTable3_SeedToDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(12)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[1].MeasuredSlope, "zipf-1.662-measured")
	}
}

// BenchmarkFig8_DegreeDistributions reproduces the four-generator
// degree-plot comparison.
func BenchmarkFig8_DegreeDistributions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(14, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.KSToRMAT["TrillionG"], "ks-trilliong-vs-rmat")
		b.ReportMetric(res.KSToRMAT["TeG"], "ks-teg-vs-rmat")
	}
}

// BenchmarkFig9_NoiseSweep reproduces the NSKG de-oscillation sweep.
func BenchmarkFig9_NoiseSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(15, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Oscillation[0], "oscillation-N0")
		b.ReportMetric(res.Oscillation[2], "oscillation-N0.1")
	}
}

// BenchmarkFig10_RichGraph reproduces the bibliographical rich-graph
// degree plots.
func BenchmarkFig10_RichGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(1<<13, 1<<17)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.OutSkewness, "author-out-skewness")
		b.ReportMetric(res.InKSNormal, "author-in-ks-normal")
	}
}

// BenchmarkFig11a_SingleThread reproduces the single-threaded method
// comparison (with the O.O.M. cap).
func BenchmarkFig11a_SingleThread(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11a([]int{11, 12, 13}, 0, b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		top := 13
		tg := res.Time("TrillionG/seq", top)
		rd := res.Time("RMAT-disk", top)
		if tg > 0 && rd > 0 {
			b.ReportMetric(float64(rd)/float64(tg), "speedup-vs-rmat-disk")
		}
	}
}

// BenchmarkFig11b_Distributed reproduces the distributed comparison on
// the simulated 10x6 cluster.
func BenchmarkFig11b_Distributed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11b([]int{12, 13}, cluster.Config{
			Machines: 4, ThreadsPerMachine: 2,
			BandwidthBytesPerSec: cluster.OneGbE, LatencySec: 0.001,
		}, 0, b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		adj := res.Time("TrillionG (ADJ6)", 13)
		disk := res.Time("RMAT/p-disk", 13)
		if adj > 0 && disk > 0 {
			b.ReportMetric(float64(disk)/float64(adj), "speedup-vs-rmatp-disk")
		}
	}
}

// BenchmarkFig12_Scalability reproduces TrillionG's time/memory
// scalability sweep.
func BenchmarkFig12_Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12([]int{13, 14, 15}, 1)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.TimeX, "time-x-per-scale")
		b.ReportMetric(last.MemX, "mem-x-per-scale")
	}
}

// BenchmarkFig13_Ablation reproduces the three-key-ideas breakdown.
func BenchmarkFig13_Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig13(15)
		if err != nil {
			b.Fatal(err)
		}
		allOff := res.Time(false, false, false)
		allOn := res.Time(true, true, true)
		if allOn > 0 {
			b.ReportMetric(float64(allOff)/float64(allOn), "all-ideas-speedup")
		}
	}
}

// BenchmarkFig14_VsGraph500 reproduces the Graph500 comparison across
// network speeds.
func BenchmarkFig14_VsGraph500(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig14([]int{12}, 1<<40)
		if err != nil {
			b.Fatal(err)
		}
		g1 := res.Time("Graph500", "1G", 12)
		t1 := res.Time("TrillionG", "1G", 12)
		if t1 > 0 {
			b.ReportMetric(float64(g1)/float64(t1), "speedup-vs-graph500-1G")
		}
		b.ReportMetric(res.Ratio("Graph500", "1G", 12), "g500-construction-ratio")
	}
}

// BenchmarkGenerate_EdgesPerSec is the headline generator throughput:
// edges per second of the production path at Scale 18 (ADJ6 discard),
// once per destination sampler.
func BenchmarkGenerate_EdgesPerSec(b *testing.B) {
	for _, sampler := range []core.Sampler{core.SamplerRecVec, core.SamplerChunk} {
		b.Run(sampler.String(), func(b *testing.B) {
			cfg := core.DefaultConfig(18)
			cfg.Workers = 1
			cfg.Sampler = sampler
			var edges int64
			for i := 0; i < b.N; i++ {
				st, err := core.Generate(cfg, core.DiscardSinks(gformat.ADJ6))
				if err != nil {
					b.Fatal(err)
				}
				edges += st.Edges
			}
			b.ReportMetric(float64(edges)/b.Elapsed().Seconds(), "edges/s")
		})
	}
}

// BenchmarkDedupCost quantifies what duplicate elimination costs the
// generator — the gap between TrillionG's realistic output and a raw
// Graph500-style edge list (DESIGN.md §7 ablation).
func BenchmarkDedupCost(b *testing.B) {
	for _, dedup := range []bool{true, false} {
		name := "dedup"
		if !dedup {
			name = "raw"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig(16)
			cfg.Workers = 1
			cfg.AllowDuplicates = !dedup
			var edges int64
			for i := 0; i < b.N; i++ {
				st, err := core.Generate(cfg, core.DiscardSinks(gformat.ADJ6))
				if err != nil {
					b.Fatal(err)
				}
				edges += st.Edges
			}
			b.ReportMetric(float64(edges)/b.Elapsed().Seconds(), "edges/s")
		})
	}
}
