// Command perfbench-tracer is the traced run of the perfbench benchmark:
// it calls the public functions of each generator layer in-process and
// times them from outside, so the program under test carries no
// instrumentation of its own. Per-call layers (size draw, vector build,
// descent, dedup, encode, ERV scopes) are timed in batches over every
// Nth scope; the driver, store, server and community layers are timed
// around whole calls.
//
// Usage:
//
//	perfbench-tracer -scale 20 -format adj6 -master 8 -community spec.json -dir work/
//
// The last line of standard output is a JSON object holding the
// per-layer metrics, the digests the cross-layer checks compared, and
// the list of failed checks.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/erv"
	"repro/internal/gformat"
	"repro/internal/partition"
	"repro/internal/recvec"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/store"
)

// sampledScopes is roughly how many scopes the per-call layers time.
const sampledScopes = 16384

// writeSampleEvery is the sink-write sampling period: one WriteScope in
// this many is timed and the sum is scaled back up.
const writeSampleEvery = 8

// workers matches the benchmark's two-worker CLI runs.
const workers = 2

type result struct {
	Metrics         map[string]float64 `json:"metrics"`
	Errors          []string           `json:"errors"`
	FlatDigest      string             `json:"flat_digest"`
	FlatEdges       int64              `json:"flat_edges"`
	CommunityDigest string             `json:"community_digest"`
	CommunityEdges  int64              `json:"community_edges"`
	CommunityParts  int                `json:"community_parts"`
}

type tracer struct {
	cfg    core.Config
	format gformat.Format
	dir    string
	res    result
}

func (t *tracer) set(name string, v float64) { t.res.Metrics[name] = v }

func (t *tracer) fail(format string, args ...any) {
	t.res.Errors = append(t.res.Errors, fmt.Sprintf(format, args...))
}

func main() {
	var (
		scale    = flag.Int("scale", 20, "log2 of the vertex count")
		noise    = flag.Float64("noise", 0, "NSKG noise parameter")
		format   = flag.String("format", "adj6", "output format: tsv or adj6")
		master   = flag.Uint64("master", 1, "master random seed")
		commSpec = flag.String("community", "", "community spec JSON file")
		dir      = flag.String("dir", "", "scratch directory for part files and the store")
	)
	flag.Parse()
	f, err := gformat.ParseFormat(*format)
	if err != nil || f == gformat.CSR6 {
		fatal(fmt.Errorf("-format must be tsv or adj6"))
	}
	if *dir == "" || *commSpec == "" {
		fatal(fmt.Errorf("-dir and -community are required"))
	}
	cfg := core.DefaultConfig(*scale)
	cfg.NoiseParam = *noise
	cfg.MasterSeed = *master
	cfg.Workers = workers
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}
	t := &tracer{cfg: cfg, format: f, dir: *dir, res: result{Metrics: map[string]float64{}, Errors: []string{}}}

	ranges, err := t.plan()
	if err != nil {
		fatal(err)
	}
	if err := t.scopes(); err != nil {
		fatal(err)
	}
	parts, err := t.driver(ranges)
	if err != nil {
		fatal(err)
	}
	if err := t.store(parts); err != nil {
		fatal(err)
	}
	pipeline, err := t.pipeline()
	if err != nil {
		fatal(err)
	}
	if err := t.http(pipeline); err != nil {
		fatal(err)
	}
	if err := t.community(*commSpec); err != nil {
		fatal(err)
	}
	out, err := json.Marshal(t.res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench-tracer:", err)
	os.Exit(1)
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// plan times core.Plan: partition.plan_s.
func (t *tracer) plan() ([]partition.Range, error) {
	var ranges []partition.Range
	var ds []time.Duration
	for i := 0; i < 3; i++ {
		start := time.Now()
		r, err := core.Plan(t.cfg, workers)
		if err != nil {
			return nil, err
		}
		ds = append(ds, time.Since(start))
		ranges = r
	}
	t.set("partition.plan_s", median(ds).Seconds())
	return ranges, nil
}

// scopes times the per-scope layers over every Nth vertex: the size
// draw, the vector build, the destination descent, ScopeWithSize as a
// whole (whose remainder is the in-scope dedup) and the encoder.
func (t *tracer) scopes() error {
	g, err := core.NewScopeGenerator(t.cfg, nil)
	if err != nil {
		return err
	}
	gc := g.Config()
	nv := t.cfg.NumVertices()
	stride := max(nv/sampledScopes, 1)
	var us []int64
	for u := int64(0); u < nv; u += stride {
		us = append(us, u)
	}
	n := len(us)

	srcs := make([]rng.Source, n)
	for i, u := range us {
		srcs[i] = *rng.NewScoped(t.cfg.MasterSeed, uint64(u))
	}
	sizes := make([]int64, n)
	start := time.Now()
	for i, u := range us {
		sizes[i] = g.ScopeSize(u, &srcs[i])
	}
	sizeDur := time.Since(start)

	// srcs now hold each scope's state after its size draw: the state
	// ScopeWithSize and the descent replay both continue from.
	afterSize := append([]rng.Source(nil), srcs...)
	dsts := make([][]int64, n)
	attempts := make([]int64, n)
	var buf []int64
	var edges, tries int64
	start = time.Now()
	for i, u := range us {
		res := g.ScopeWithSize(u, sizes[i], &srcs[i], buf)
		buf = res.Dsts
		attempts[i] = res.Attempts
		dsts[i] = append([]int64(nil), res.Dsts...)
	}
	swsDur := time.Since(start)
	for i := range us {
		edges += int64(len(dsts[i]))
		tries += attempts[i]
	}

	build := func(u int64) *recvec.Vector {
		if gc.Noise != nil {
			return recvec.NewNoisy(gc.Noise, u, gc.Levels)
		}
		return recvec.New(gc.Seed, u, gc.Levels)
	}
	vecs := make([]*recvec.Vector, n)
	var built int
	start = time.Now()
	for i, u := range us {
		if sizes[i] > 0 {
			vecs[i] = build(u)
			built++
		}
	}
	buildDur := time.Since(start)

	start = time.Now()
	for i := range us {
		v := vecs[i]
		if v == nil {
			continue
		}
		src := &afterSize[i]
		total := v.RowProb()
		for k := int64(0); k < attempts[i]; k++ {
			v.DetermineOpt(src.UniformTo(total), src, gc.Opts)
		}
	}
	descentDur := time.Since(start)

	enc := newWriter(t.format, io.Discard)
	start = time.Now()
	for i, u := range us {
		if err := enc.WriteScope(u, dsts[i]); err != nil {
			return err
		}
	}
	if err := enc.Close(); err != nil {
		return err
	}
	encDur := time.Since(start)

	if edges == 0 || built == 0 {
		return fmt.Errorf("sampled scopes produced no edges")
	}
	t.set("avs.size_draw_ns_per_scope", float64(sizeDur.Nanoseconds())/float64(n))
	t.set("recvec.build_ns_per_scope", float64(buildDur.Nanoseconds())/float64(built))
	t.set("recvec.descent_ns_per_attempt", float64(descentDur.Nanoseconds())/float64(tries))
	t.set("avs.dedup_ns_per_edge", float64((swsDur-buildDur-descentDur).Nanoseconds())/float64(edges))
	t.set("gformat.encode_ns_per_edge", float64(encDur.Nanoseconds())/float64(edges))
	t.set("gformat.bytes_per_edge", float64(enc.BytesWritten())/float64(edges))
	return nil
}

func newWriter(f gformat.Format, w io.Writer) gformat.Writer {
	if f == gformat.TSV {
		return gformat.NewTSVWriter(w)
	}
	return gformat.NewADJ6Writer(w)
}

// timedWriter wraps one atomic part writer handed to GenerateRanges.
type timedWriter struct {
	gformat.Writer
	calls    int64
	write    time.Duration // sampled WriteScope time
	close    time.Duration // flush, fsync and rename
	closedAt time.Time
}

func (w *timedWriter) WriteScope(src int64, dsts []int64) error {
	w.calls++
	if w.calls%writeSampleEvery != 0 {
		return w.Writer.WriteScope(src, dsts)
	}
	start := time.Now()
	err := w.Writer.WriteScope(src, dsts)
	w.write += time.Since(start)
	return err
}

func (w *timedWriter) Close() error {
	start := time.Now()
	err := w.Writer.Close()
	w.closedAt = time.Now()
	w.close = w.closedAt.Sub(start)
	return err
}

// partFile is one generated part: path, range and edge count.
type partFile struct {
	path  string
	r     partition.Range
	edges int64
	bytes int64
}

// cpuSeconds reads the runtime's total and GC CPU-time estimates.
func cpuSeconds() (total, gc float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/total:cpu-seconds"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// driver runs core.GenerateRanges into atomic part files twice: once
// with plain sinks (timers off) and once with every writer wrapped
// (timers on). Their wall-time ratio is trace.overhead_frac; the traced
// run also yields the sink, imbalance, AVS-count and runtime metrics.
func (t *tracer) driver(ranges []partition.Range) ([]partFile, error) {
	ids := make([]int, len(ranges))
	for i := range ids {
		ids[i] = i
	}
	nv := t.cfg.NumVertices()

	offDir := filepath.Join(t.dir, "driver-off")
	if err := os.MkdirAll(offDir, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	offSt, err := core.GenerateRanges(t.cfg, ranges, core.AtomicPartSinks(offDir, t.format, nv, ids))
	if err != nil {
		return nil, err
	}
	offWall := time.Since(start)
	offDigest, err := digestParts(offDir, t.format, len(ranges))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(offDir); err != nil {
		return nil, err
	}

	onDir := filepath.Join(t.dir, "driver-on")
	if err := os.MkdirAll(onDir, 0o755); err != nil {
		return nil, err
	}
	inner := core.AtomicPartSinks(onDir, t.format, nv, ids)
	timed := make([]*timedWriter, len(ranges))
	sinks := func(i int, r partition.Range) (gformat.Writer, error) {
		w, err := inner(i, r)
		if err != nil {
			return nil, err
		}
		timed[i] = &timedWriter{Writer: w}
		return timed[i], nil
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, gc0 := cpuSeconds()
	start = time.Now()
	st, err := core.GenerateRanges(t.cfg, ranges, sinks)
	if err != nil {
		return nil, err
	}
	onWall := time.Since(start)
	cpu1, gc1 := cpuSeconds()
	runtime.ReadMemStats(&after)

	digest, err := digestParts(onDir, t.format, len(ranges))
	if err != nil {
		return nil, err
	}
	if digest != offDigest || st.Edges != offSt.Edges {
		t.fail("traced driver output %s (%d edges) differs from untraced %s (%d edges)", digest[:16], st.Edges, offDigest[:16], offSt.Edges)
	}
	t.res.FlatDigest, t.res.FlatEdges = digest, st.Edges

	var write, closeDur time.Duration
	var maxBusy, sumBusy float64
	parts := make([]partFile, len(ranges))
	for i, w := range timed {
		write += w.write * writeSampleEvery
		closeDur += w.close
		busy := w.closedAt.Sub(start).Seconds()
		sumBusy += busy
		maxBusy = max(maxBusy, busy)
		parts[i] = partFile{path: core.PartPath(onDir, t.format, i), r: ranges[i], edges: w.EdgesWritten(), bytes: w.BytesWritten()}
	}
	edges := float64(st.Edges)
	t.set("core.sink_write_s", write.Seconds())
	t.set("core.sink_close_s", closeDur.Seconds())
	t.set("core.worker_imbalance", maxBusy/(sumBusy/float64(len(timed))))
	t.set("avs.useful_frac", edges/float64(st.Attempts))
	t.set("avs.peak_worker_bytes", float64(st.PeakWorkerBytes))
	t.set("runtime.allocs_per_edge", float64(after.Mallocs-before.Mallocs)/edges)
	t.set("runtime.alloc_bytes_per_edge", float64(after.TotalAlloc-before.TotalAlloc)/edges)
	if cpu1 > cpu0 {
		t.set("runtime.gc_cpu_frac", (gc1-gc0)/(cpu1-cpu0))
	}
	t.set("trace.overhead_frac", onWall.Seconds()/offWall.Seconds()-1)
	return parts, nil
}

func digestParts(dir string, f gformat.Format, n int) (string, error) {
	h := sha256.New()
	for i := 0; i < n; i++ {
		if err := hashFile(h, core.PartPath(dir, f, i)); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func hashFile(h hash.Hash, path string) error {
	fh, err := os.Open(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	_, err = io.Copy(h, fh)
	return err
}

// store times (*store.Store).IngestFile over the traced parts, then
// Retrieve of each into a fresh directory.
func (t *tracer) store(parts []partFile) error {
	st, err := store.Open(filepath.Join(t.dir, "store"), store.Options{})
	if err != nil {
		return err
	}
	var total int64
	var ingest time.Duration
	for _, p := range parts {
		start := time.Now()
		if err := st.IngestFile(core.PartKey(t.cfg, t.format, p.r), p.path, p.edges); err != nil {
			return err
		}
		ingest += time.Since(start)
		total += p.bytes
	}
	outDir := filepath.Join(t.dir, "retrieved")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	var retrieve time.Duration
	hits := 0
	for i, p := range parts {
		start := time.Now()
		_, ok, err := st.Retrieve(core.PartKey(t.cfg, t.format, p.r), core.PartPath(outDir, t.format, i))
		if err != nil {
			return err
		}
		retrieve += time.Since(start)
		if ok {
			hits++
		}
	}
	if hits == len(parts) {
		if digest, err := digestParts(outDir, t.format, len(parts)); err != nil {
			return err
		} else if digest != t.res.FlatDigest {
			t.fail("store retrieved %s, generated %s", digest[:16], t.res.FlatDigest[:16])
		}
	} else {
		t.fail("store hit %d of %d parts just ingested", hits, len(parts))
	}
	mb := float64(total) / 1e6
	t.set("store.ingest_mb_per_s", mb/ingest.Seconds())
	t.set("store.retrieve_mb_per_s", mb/retrieve.Seconds())
	t.set("store.hit_frac", float64(hits)/float64(len(parts)))
	for _, d := range []string{outDir, filepath.Join(t.dir, "store"), filepath.Dir(parts[0].path)} {
		if err := os.RemoveAll(d); err != nil {
			return err
		}
	}
	return nil
}

// countingWriter hashes and counts stream bytes and stamps the first
// write.
type countingWriter struct {
	h     hash.Hash
	n     int64
	first time.Time
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.first.IsZero() {
		c.first = time.Now()
	}
	c.n += int64(len(p))
	return c.h.Write(p)
}

// pipeline times server.StreamRange over the whole vertex range into a
// counting writer and returns its wall time.
func (t *tracer) pipeline() (time.Duration, error) {
	cw := &countingWriter{h: sha256.New()}
	start := time.Now()
	st, err := server.StreamRange(context.Background(), t.cfg, t.format, 0, t.cfg.NumVertices(), cw, server.StreamOptions{Workers: workers})
	if err != nil {
		return 0, err
	}
	wall := time.Since(start)
	if digest := hex.EncodeToString(cw.h.Sum(nil)); digest != t.res.FlatDigest || st.Edges != t.res.FlatEdges {
		t.fail("StreamRange output %s (%d edges) differs from the driver's %s (%d edges)", digest[:16], st.Edges, t.res.FlatDigest[:16], t.res.FlatEdges)
	}
	t.set("server.pipeline_edges_per_s", float64(st.Edges)/wall.Seconds())
	t.set("server.first_write_s", cw.first.Sub(start).Seconds())
	return wall, nil
}

// http streams the same graph through the service's HTTP handler on a
// loopback listener; the share of its wall time the in-process
// pipeline does not account for is server.http_overhead_frac.
func (t *tracer) http(pipeline time.Duration) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: server.New(server.Options{}).Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()
	base := "http://" + ln.Addr().String()
	spec := map[string]any{"scale": t.cfg.Scale, "master_seed": t.cfg.MasterSeed, "format": t.format.String(), "workers": workers}
	if t.cfg.NoiseParam > 0 {
		spec["noise"] = t.cfg.NoiseParam
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	start := time.Now()
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var job struct {
		StreamURL string `json:"stream_url"`
	}
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("POST /v1/jobs: status %d: %v", resp.StatusCode, err)
	}
	resp, err = http.Get(base + job.StreamURL)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET stream: status %d", resp.StatusCode)
	}
	h := sha256.New()
	if _, err := io.Copy(h, resp.Body); err != nil {
		return err
	}
	wall := time.Since(start)
	if digest := hex.EncodeToString(h.Sum(nil)); digest != t.res.FlatDigest {
		t.fail("HTTP stream %s differs from the driver's %s", digest[:16], t.res.FlatDigest[:16])
	}
	t.set("server.http_overhead_frac", 1-pipeline.Seconds()/wall.Seconds())
	return nil
}

// community times community.New, then (*community.Layout).GeneratePart
// for every block into atomic part files (whose digest the swarm run
// is checked against), then (*erv.Generator).Scope over every Nth
// scope of each ERV rectangle of the layout.
func (t *tracer) community(specPath string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	ccfg, err := community.ParseSpec(raw)
	if err != nil {
		return err
	}
	var lay *community.Layout
	var ds []time.Duration
	for i := 0; i < 5; i++ {
		start := time.Now()
		lay, err = community.New(ccfg)
		if err != nil {
			return err
		}
		ds = append(ds, time.Since(start))
	}
	t.set("community.layout_s", median(ds).Seconds())

	dir := filepath.Join(t.dir, "community")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ranges, ids, err := lay.Plan(0)
	if err != nil {
		return err
	}
	var maxBlock, sumBlock time.Duration
	var edges int64
	for i, r := range ranges {
		start := time.Now()
		st, err := lay.GeneratePart(ids[i], r, core.AtomicPartSinks(dir, gformat.ADJ6, lay.NumVertices(), []int{ids[i]}), nil)
		if err != nil {
			return err
		}
		d := time.Since(start)
		maxBlock = max(maxBlock, d)
		sumBlock += d
		edges += st.Edges
	}
	digest, err := digestParts(dir, gformat.ADJ6, len(ranges))
	if err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	t.res.CommunityDigest, t.res.CommunityEdges, t.res.CommunityParts = digest, edges, len(ranges)
	t.set("community.block_max_s", maxBlock.Seconds())
	t.set("community.block_imbalance", maxBlock.Seconds()/(sumBlock.Seconds()/float64(len(ranges))))

	ervDur, ervEdges, err := traceERV(lay)
	if err != nil {
		return err
	}
	t.set("erv.scope_ns_per_edge", float64(ervDur.Nanoseconds())/float64(ervEdges))
	return nil
}

// traceERV times erv.Generator.Scope on every ERV block of the layout:
// rectangles and odd-sized squares, the blocks the layout does not
// hand to the AVS engine.
func traceERV(lay *community.Layout) (time.Duration, int64, error) {
	seed := *lay.Config().Seed
	slope := func(s float64) erv.Dist {
		if s < -1e-12 {
			return erv.Dist{Kind: erv.Zipfian, Slope: s}
		}
		return erv.Dist{Kind: erv.Gaussian}
	}
	var total time.Duration
	var edges int64
	var buf []int64
	for _, b := range lay.Blocks() {
		rows, cols := b.SrcHi-b.SrcLo, b.DstHi-b.DstLo
		if b.Intra && rows >= 2 && rows == cols && rows&(rows-1) == 0 {
			continue
		}
		g, err := erv.New(erv.Config{
			NumSrc: rows, NumDst: cols, NumEdges: b.Edges,
			OutDist: slope(seed.OutZipfSlope()), InDist: slope(seed.InZipfSlope()),
			AllowDuplicates: lay.Config().AllowDuplicates,
		})
		if err != nil {
			return 0, 0, err
		}
		stride := max(rows/(sampledScopes/8), 1)
		var srcs []*rng.Source
		var us []int64
		for u := int64(0); u < rows; u += stride {
			us = append(us, u)
			srcs = append(srcs, rng.NewScoped(b.Seed, uint64(u)))
		}
		start := time.Now()
		for i, u := range us {
			buf = g.Scope(u, srcs[i], buf)
			edges += int64(len(buf))
		}
		total += time.Since(start)
	}
	if edges == 0 {
		return 0, 0, errors.New("ERV blocks produced no sampled edges")
	}
	return total, edges, nil
}
