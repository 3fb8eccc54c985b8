package core

import (
	"sync"
	"testing"

	"repro/internal/gformat"
	"repro/internal/telemetry"
)

// TestGenerateObservedCountersMatchStats: the registry's totals must
// agree exactly with the Stats the run returns — the property that
// lets trilliong-bench report from the registry alone.
func TestGenerateObservedCountersMatchStats(t *testing.T) {
	tel := telemetry.NewRegistry()
	cfg := DefaultConfig(10)
	cfg.Workers = 3
	st, err := GenerateObserved(cfg, ObservedSinks(DiscardSinks(gformat.ADJ6), gformat.ADJ6, tel), tel)
	if err != nil {
		t.Fatal(err)
	}
	if got := tel.CounterValue(MetricEdges); got != st.Edges {
		t.Fatalf("edges counter %d, stats %d", got, st.Edges)
	}
	if got := tel.CounterValue(MetricAttempts); got != st.Attempts {
		t.Fatalf("attempts counter %d, stats %d", got, st.Attempts)
	}
	if got := tel.CounterValue(MetricScopes); got != cfg.NumVertices() {
		t.Fatalf("scopes counter %d, want %d", got, cfg.NumVertices())
	}
	if got := tel.CounterValue(MetricBytes); got != st.BytesWritten {
		t.Fatalf("bytes counter %d, stats %d", got, st.BytesWritten)
	}
	if got := tel.CounterValue(SinkMetric(gformat.ADJ6, "edges")); got != st.Edges {
		t.Fatalf("per-format edge counter %d, stats %d", got, st.Edges)
	}
	if got := tel.CounterValue(SinkMetric(gformat.ADJ6, "bytes")); got != st.BytesWritten {
		t.Fatalf("per-format byte counter %d, stats %d", got, st.BytesWritten)
	}

	// Stage accounting: plan ran once, and the recvec-build, draw and
	// write stages saw one observation per worker with the full
	// generator/scope/edge mass.
	if s := tel.StageSnapshot(StagePlan); s.Calls != 1 || s.Items != 3 {
		t.Fatalf("plan stage %+v", s)
	}
	if s := tel.StageSnapshot(StageRecvecBuild); s.Calls != 3 || s.Items != 3 {
		t.Fatalf("recvec stage %+v", s)
	}
	if s := tel.StageSnapshot(StageSinkWrite); s.Calls != 3 || s.Items != st.Edges {
		t.Fatalf("sink stage %+v edges %d", s, st.Edges)
	}
	if s := tel.StageSnapshot(StageScopeDraw); s.Items != cfg.NumVertices() {
		t.Fatalf("draw stage %+v", s)
	}
	if rg := tel.RateGauge(MetricEdgesPerSec, 0); rg.Total() != st.Edges {
		t.Fatalf("rate gauge total %d, stats %d", rg.Total(), st.Edges)
	}
}

// TestGenerateObservedBitIdentical: instrumentation must not perturb
// the generated graph.
func TestGenerateObservedBitIdentical(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Workers = 2
	collect := func(tel *telemetry.Registry) map[int64][]int64 {
		var mu sync.Mutex
		got := make(map[int64][]int64)
		sinks := CallbackSinks(func(src int64, dsts []int64) error {
			mu.Lock()
			got[src] = append([]int64(nil), dsts...)
			mu.Unlock()
			return nil
		})
		if _, err := GenerateObserved(cfg, sinks, tel); err != nil {
			t.Fatal(err)
		}
		return got
	}
	plain := collect(nil)
	observed := collect(telemetry.NewRegistry())
	if len(plain) != len(observed) {
		t.Fatalf("scope counts differ: %d vs %d", len(plain), len(observed))
	}
	for src, dsts := range plain {
		o := observed[src]
		if len(o) != len(dsts) {
			t.Fatalf("scope %d length differs", src)
		}
		for i := range dsts {
			if dsts[i] != o[i] {
				t.Fatalf("scope %d differs at %d", src, i)
			}
		}
	}
}

// TestObservedSinksSharedRegistry: two sequential runs into one
// registry accumulate, they do not reset — the contract live servers
// rely on.
func TestObservedSinksSharedRegistry(t *testing.T) {
	tel := telemetry.NewRegistry()
	cfg := DefaultConfig(8)
	cfg.Workers = 2
	st1, err := GenerateObserved(cfg, ObservedSinks(DiscardSinks(gformat.TSV), gformat.TSV, tel), tel)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := GenerateObserved(cfg, ObservedSinks(DiscardSinks(gformat.TSV), gformat.TSV, tel), tel)
	if err != nil {
		t.Fatal(err)
	}
	if got := tel.CounterValue(MetricEdges); got != st1.Edges+st2.Edges {
		t.Fatalf("edge counter %d after two runs, want %d", got, st1.Edges+st2.Edges)
	}
	if got := tel.CounterValue(SinkMetric(gformat.TSV, "bytes")); got != st1.BytesWritten+st2.BytesWritten {
		t.Fatalf("byte counter %d, want %d", got, st1.BytesWritten+st2.BytesWritten)
	}
}
