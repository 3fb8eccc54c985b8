package community

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/gformat"
	"repro/internal/telemetry"
)

// TestERVAttemptsIncludeRejections: a bipartite block four columns
// wide makes most destination draws duplicates. The run's attempts
// must count those rejections, and the core.* totals must agree with
// the returned Stats.
func TestERVAttemptsIncludeRejections(t *testing.T) {
	lay := mustLayout(t, Bipartite(64, 4, 200, 3))
	tel := telemetry.NewRegistry()
	st, err := lay.GenerateToDir(t.TempDir(), gformat.TSV, RunOptions{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	if st.Edges == 0 || st.Attempts <= st.Edges {
		t.Fatalf("attempts %d, edges %d: dedup rejections not counted", st.Attempts, st.Edges)
	}
	for name, want := range map[string]int64{
		core.MetricAttempts: st.Attempts,
		core.MetricEdges:    st.Edges,
		core.MetricScopes:   lay.ScopeTotal(),
	} {
		if got := tel.CounterValue(name); got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestPeakWorkerBytesBatchEqualsStream: community parts charge their
// AVS and ERV working sets, and the per-part peaks of a batch run
// agree with the single-producer stream's peak over the same scopes.
func TestPeakWorkerBytesBatchEqualsStream(t *testing.T) {
	for name, cfg := range map[string]Config{
		"mixed":     testConfig(),
		"bipartite": Bipartite(64, 4, 200, 3),
	} {
		lay := mustLayout(t, cfg)
		batch, err := lay.GenerateToDir(t.TempDir(), gformat.ADJ6, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		stream, err := core.Drive(context.Background(), lay.Runs(nil), gformat.NewADJ6Writer(&buf), core.DriveOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if batch.PeakWorkerBytes <= 0 || batch.PeakWorkerBytes != stream.PeakWorkerBytes {
			t.Fatalf("%s: PeakWorkerBytes batch %d, stream %d", name, batch.PeakWorkerBytes, stream.PeakWorkerBytes)
		}
		if batch.Attempts != stream.Attempts || batch.Edges != stream.Edges {
			t.Fatalf("%s: batch %+v, stream %+v", name, batch, stream)
		}
	}
}
