package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/gformat"
)

// batchCommunity generates the layout to a directory and returns the
// part files concatenated in part order — the bytes a streamed job of
// the same spec must reproduce exactly.
func batchCommunity(t *testing.T, lay *community.Layout, format gformat.Format) []byte {
	t.Helper()
	dir := t.TempDir()
	if _, err := lay.GenerateToDir(dir, format, community.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for id := 0; id < lay.NumBlocks(); id++ {
		b, err := os.ReadFile(core.PartPath(dir, format, id))
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
	}
	return buf.Bytes()
}

func streamJobByID(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d: %s", resp.StatusCode, body)
	}
	return body
}

// TestServerBipartiteStreamEqualsBatch: the first-class bipartite
// shape streams the byte-exact graph the batch community path writes
// for the equivalent two-community spec.
func TestServerBipartiteStreamEqualsBatch(t *testing.T) {
	lay, err := community.New(community.Bipartite(64, 96, 4*64, 9))
	if err != nil {
		t.Fatal(err)
	}
	want := batchCommunity(t, lay, gformat.TSV)

	_, base := newTestServer(t, Options{})
	id := createJob(t, base,
		`{"shape":"bipartite","rows":64,"cols":96,"edge_factor":4,"master_seed":9,"format":"tsv"}`)
	got := streamJobByID(t, base, id)
	if !bytes.Equal(got, want) {
		t.Fatalf("streamed %d bytes differ from %d batch bytes", len(got), len(want))
	}

	st := getStatus(t, base, id)
	if st.State != StateDone || st.Progress != 1 {
		t.Fatalf("status %+v", st)
	}
	if st.ScopesTotal != lay.ScopeTotal() {
		t.Fatalf("scopes_total %d, want %d", st.ScopesTotal, lay.ScopeTotal())
	}
}

// TestServerCommunityStreamEqualsBatch: a full community job (mixed
// AVS/ERV blocks, embedded spec) is stream-equivalent to batch.
func TestServerCommunityStreamEqualsBatch(t *testing.T) {
	spec := `{"sizes":[8,5,8],"mixing":[[4,1,0],[1,2,1],[0,1,3]],"edges":120,"noise":0.1,"master_seed":11}`
	cfg, err := community.ParseSpec([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	lay, err := community.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := batchCommunity(t, lay, gformat.ADJ6)

	_, base := newTestServer(t, Options{})
	id := createJob(t, base, `{"shape":"community","format":"adj6","community":`+spec+`}`)
	got := streamJobByID(t, base, id)
	if !bytes.Equal(got, want) {
		t.Fatalf("streamed %d bytes differ from %d batch bytes", len(got), len(want))
	}
	if st := getStatus(t, base, id); st.State != StateDone {
		t.Fatalf("status %+v", st)
	}
}

// TestServerCommunityStreamCacheHit: a community job's whole-stream
// artifact lands in the store and a second identical job replays it
// bit-identically — and a job differing only in its mixing matrix does
// not collide with it.
func TestServerCommunityStreamCacheHit(t *testing.T) {
	_, base, _ := newCachedServer(t, Options{})
	spec := `{"shape":"community","format":"tsv","community":{"sizes":[8,5],"mixing":[[4,1],[1,2]],"edges":80,"master_seed":7}}`
	first, c1 := streamJob(t, base, spec)
	second, c2 := streamJob(t, base, spec)
	if c1 != "miss" || c2 != "hit" {
		t.Fatalf("cache headers %q then %q, want miss then hit", c1, c2)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("cache replay differs from the generated stream")
	}
	remixed := `{"shape":"community","format":"tsv","community":{"sizes":[8,5],"mixing":[[1,4],[2,1]],"edges":80,"master_seed":7}}`
	third, c3 := streamJob(t, base, remixed)
	if c3 != "miss" {
		t.Fatalf("different mixing matrix got cache header %q, want miss", c3)
	}
	if bytes.Equal(first, third) {
		t.Fatal("different mixing matrices streamed identical bytes")
	}
}

// TestServerCommunitySpecRejections: malformed community/bipartite
// specs fail at POST with a diagnostic, never at stream time.
func TestServerCommunitySpecRejections(t *testing.T) {
	_, base := newTestServer(t, Options{MaxScale: 20})
	cases := map[string]string{
		"unknown shape":            `{"shape":"torus","scale":10}`,
		"bipartite without rows":   `{"shape":"bipartite","cols":8}`,
		"bipartite zero rows":      `{"shape":"bipartite","rows":0,"cols":8}`,
		"bipartite with scale":     `{"shape":"bipartite","rows":8,"cols":8,"scale":10}`,
		"bipartite with community": `{"shape":"bipartite","rows":8,"cols":8,"community":{"sizes":[2,2],"mixing":[[0,1],[0,0]]}}`,
		"bipartite csr6":           `{"shape":"bipartite","rows":8,"cols":8,"format":"csr6"}`,
		"community without spec":   `{"shape":"community"}`,
		"community with rows":      `{"shape":"community","rows":8,"community":{"sizes":[2,2],"mixing":[[0,1],[0,0]]}}`,
		"community outer seed":     `{"shape":"community","master_seed":5,"community":{"sizes":[2,2],"mixing":[[0,1],[0,0]]}}`,
		"community zero mixing":    `{"shape":"community","community":{"sizes":[4,4],"mixing":[[0,0],[0,0]]}}`,
		"community typoed key":     `{"shape":"community","community":{"sizes":[4,4],"mixxing":[[0,1],[0,0]]}}`,
		"community over max scale": `{"shape":"community","community":{"sizes":[1048576,1048576],"mixing":[[0,1],[0,0]],"edges":16}}`,
		"classic with rows":        `{"scale":10,"rows":8}`,
	}
	for name, spec := range cases {
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", name, resp.StatusCode, body)
		}
	}
}

// narrowSpec mixes AVS and ERV blocks with a four-wide community, so
// ERV dedup rejections show up in the attempt counts.
const narrowSpec = `{"sizes":[16,4,9],"mixing":[[6,1,1],[1,1,0],[1,1,3]],"edges":150,"noise":0.1,"master_seed":5}`

func narrowLayout(t *testing.T) *community.Layout {
	t.Helper()
	cfg, err := community.ParseSpec([]byte(narrowSpec))
	if err != nil {
		t.Fatal(err)
	}
	lay, err := community.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return lay
}

// TestCommunityStreamWorkersByteEqual: a community stream fanned out
// over four producers is byte-equal to the single-producer stream and
// to the batch part files, with identical stats.
func TestCommunityStreamWorkersByteEqual(t *testing.T) {
	lay := narrowLayout(t)
	stream := func(workers int) ([]byte, StreamStats) {
		var buf bytes.Buffer
		st, err := streamRuns(context.Background(), lay.Runs(nil), gformat.ADJ6, &buf, StreamOptions{Workers: workers, Depth: 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), st
	}
	one, st1 := stream(1)
	four, st4 := stream(4)
	if !bytes.Equal(one, four) || st1 != st4 {
		t.Fatalf("workers 4 (%d bytes, %+v) differ from workers 1 (%d bytes, %+v)", len(four), st4, len(one), st1)
	}
	if want := batchCommunity(t, lay, gformat.ADJ6); !bytes.Equal(four, want) {
		t.Fatalf("fanned-out stream differs from the batch part files")
	}
	if st4.Scopes != lay.ScopeTotal() || st4.PeakWorkerBytes <= 0 {
		t.Fatalf("stats %+v, scope total %d", st4, lay.ScopeTotal())
	}
}

// TestCommunityStreamCancel: cancelling a community stream mid-way
// returns the context's error, inline and fanned out.
func TestCommunityStreamCancel(t *testing.T) {
	lay := narrowLayout(t)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var n int
		opt := StreamOptions{Workers: workers, OnScope: func(int64, int) {
			if n++; n == 10 {
				cancel()
			}
		}}
		_, err := streamRuns(ctx, lay.Runs(nil), gformat.TSV, io.Discard, opt, nil)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: err = %v, want context.Canceled", workers, err)
		}
		if int64(n) >= lay.ScopeTotal() {
			t.Fatalf("workers %d: stream ran to completion despite cancellation", workers)
		}
	}
}

// TestCommunityJobWorkersCapped: community jobs take the spec's
// workers under the same per-job cap as classic jobs.
func TestCommunityJobWorkersCapped(t *testing.T) {
	lim := specLimits{maxWorkersPerJob: 4}
	for workers, want := range map[int]int{0: 4, 2: 2, 9: 4} {
		c, err := JobSpec{Shape: "community", Workers: workers, Community: []byte(narrowSpec)}.compile(lim)
		if err != nil {
			t.Fatal(err)
		}
		if c.workers != want {
			t.Fatalf("workers %d compiled to %d, want %d", workers, c.workers, want)
		}
	}
	if _, err := (JobSpec{Shape: "community", Workers: -1, Community: []byte(narrowSpec)}).compile(lim); err == nil {
		t.Fatal("negative workers accepted")
	}
}

// TestServerEmitsCoreMetrics: streams feed the server registry's
// core.* totals, which must equal the summed stats of the same classic
// and community streams run directly, ERV rejections included. The
// community job's live counters must match its stream too.
func TestServerEmitsCoreMetrics(t *testing.T) {
	s, base := newTestServer(t, Options{})
	classic := createJob(t, base, `{"scale":10,"format":"adj6","workers":2}`)
	streamJobByID(t, base, classic)
	comm := createJob(t, base, `{"shape":"community","format":"tsv","workers":2,"community":`+narrowSpec+`}`)
	streamJobByID(t, base, comm)

	cfg := core.DefaultConfig(10)
	a, err := StreamRange(context.Background(), cfg, gformat.ADJ6, 0, cfg.NumVertices(), io.Discard, StreamOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	lay := narrowLayout(t)
	b, err := streamRuns(context.Background(), lay.Runs(nil), gformat.TSV, io.Discard, StreamOptions{Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Attempts <= b.Edges {
		t.Fatalf("community attempts %d not above edges %d", b.Attempts, b.Edges)
	}
	tel := s.metrics.tel
	for name, want := range map[string]int64{
		core.MetricScopes:   a.Scopes + b.Scopes,
		core.MetricEdges:    a.Edges + b.Edges,
		core.MetricAttempts: a.Attempts + b.Attempts,
	} {
		if got := tel.CounterValue(name); got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
	if st := getStatus(t, base, comm); st.EdgesStreamed != b.Edges || st.ScopesDone != b.Scopes {
		t.Fatalf("community job status %+v, stream %+v", st, b)
	}
}
