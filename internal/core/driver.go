package core

import (
	"context"
	"sync"
	"time"

	"repro/internal/gformat"
	"repro/internal/memacct"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// DefaultDepth is the fan-in's per-producer run-ahead, in scopes.
const DefaultDepth = 32

// Scoper draws scopes for the driver; *avs.Generator and
// *erv.Generator implement it. Each producer owns its Scoper.
type Scoper interface {
	// DrawScope draws local source u's destinations from src into
	// buf[:0] and returns them with the stochastic trials spent,
	// including rejected in-scope duplicates.
	DrawScope(u int64, src *rng.Source, buf []int64) (dsts []int64, attempts int64)
}

// Run is a contiguous stretch of scopes for the driver: local sources
// [Lo, Hi) of one generator. Local scope u draws from the stream
// Mix64(Seed, u) and is written as source u+SrcOff with every
// destination shifted by DstOff — zero offsets for a vertex range of a
// Config, the block's corner for a community block.
type Run struct {
	Seed           uint64
	Lo, Hi         int64
	SrcOff, DstOff int64
	// NewScoper builds the run's generator charging its working set to
	// acct; every producer that reaches the run calls it once.
	NewScoper func(acct *memacct.Acct) (Scoper, error)
	// Done, if non-nil, receives the run's edge count after its last
	// scope is written.
	Done func(edges int64)
}

// RangeRun is the run of cfg's vertices [lo, hi).
func RangeRun(cfg Config, lo, hi int64) Run {
	return Run{Seed: cfg.MasterSeed, Lo: lo, Hi: hi, NewScoper: func(acct *memacct.Acct) (Scoper, error) {
		return NewScopeGenerator(cfg, acct)
	}}
}

// DriveOptions tunes Drive.
type DriveOptions struct {
	// Workers is the producer count. At most one draws inline on the
	// caller's goroutine; W > 1 hands scope i of the concatenated runs
	// to producer i mod W and reads the producers back round-robin, so
	// the writer sees exactly the inline order.
	Workers int
	// Depth is each producer's channel capacity (0 = 32). Run-ahead —
	// and therefore memory — is bounded by Workers·(Depth+1) scopes.
	Depth int
	// Tel receives the core.* stages and counters (nil disables).
	Tel *telemetry.Registry
	// OnScope, if non-nil, is called after each scope is written.
	OnScope func(src int64, edges int)
}

// Drive writes every scope of runs, in order, into w and closes it. It
// is the one scope loop of the system: batch, dist and swarm parts
// drive one run inline, server streams fan a range or a whole
// community layout out over producers. On error w is left unclosed, so
// an atomic sink never publishes a partial part; cancelling ctx returns
// ctx's error.
func Drive(ctx context.Context, runs []Run, w gformat.Writer, opt DriveOptions) (Stats, error) {
	start := time.Now()
	var total int64
	for _, r := range runs {
		total += r.Hi - r.Lo
	}
	d := &drive{runs: runs, w: w, opt: opt}
	d.prods = make([]producer, min(int64(max(opt.Workers, 1)), max(total, 1)))
	for i := range d.prods {
		d.prods[i] = producer{run: -1}
	}
	if opt.Tel != nil {
		d.rate = opt.Tel.RateGauge(MetricEdgesPerSec, 0)
	}
	var err error
	if len(d.prods) == 1 {
		err = d.inline(ctx)
	} else {
		err = d.fanIn(ctx)
	}
	if err == nil {
		closeStart := time.Now()
		err = w.Close()
		d.write += time.Since(closeStart)
	}
	d.st.BytesWritten = w.BytesWritten()
	d.st.GenDuration = time.Since(start)
	d.st.Elapsed = d.st.GenDuration
	d.settle()
	return d.st, err
}

// DrivePart is the one part path of every runtime: open part r's
// writer from sinks(0, r) and drive run into it inline.
func DrivePart(run Run, r partition.Range, sinks SinkFactory, tel *telemetry.Registry) (Stats, error) {
	w, err := sinks(0, r)
	if err != nil {
		return Stats{}, err
	}
	st, err := Drive(context.Background(), []Run{run}, w, DriveOptions{Workers: 1, Tel: tel})
	st.Ranges = []partition.Range{r}
	return st, err
}

// drive is one Drive call's writer-side state.
type drive struct {
	runs  []Run
	w     gformat.Writer
	opt   DriveOptions
	prods []producer
	st    Stats
	rate  *telemetry.RateGauge
	write time.Duration
}

// producer is one producer's generator, stream and accounting.
type producer struct {
	acct   memacct.Acct
	src    rng.Source
	sc     Scoper
	run    int // index of the run sc was built for
	builds int64
	// wall is the producer's drawing time, builds included.
	build, wall time.Duration
}

// scopeMsg is one drawn scope on its way to the writer.
type scopeMsg struct {
	dsts     []int64
	attempts int64
	err      error
}

// scope draws local scope u of runs[ri] into buf, building the run's
// scoper on first use: the one place a scope's stream is seeded.
func (p *producer) scope(runs []Run, ri int, u int64, buf []int64) scopeMsg {
	r := &runs[ri]
	if p.run != ri {
		start := time.Now()
		sc, err := r.NewScoper(&p.acct)
		if err != nil {
			return scopeMsg{err: err}
		}
		p.sc, p.run = sc, ri
		p.builds++
		p.build += time.Since(start)
	}
	p.src.Reset(rng.Mix64(r.Seed, uint64(u)))
	dsts, attempts := p.sc.DrawScope(u, &p.src, buf)
	if r.DstOff != 0 {
		for i := range dsts {
			dsts[i] += r.DstOff
		}
	}
	return scopeMsg{dsts: dsts, attempts: attempts}
}

// consume walks every scope in order, taking scope i (local source u
// of runs[ri]) from next, writing it and handing its buffer back to
// recycle.
func (d *drive) consume(next func(ri int, u, i int64) scopeMsg, recycle func(i int64, buf []int64)) error {
	var i int64
	for ri := range d.runs {
		r := &d.runs[ri]
		mark := d.st.Edges
		for u := r.Lo; u < r.Hi; u, i = u+1, i+1 {
			m := next(ri, u, i)
			if m.err != nil {
				return m.err
			}
			if err := d.emit(r.SrcOff+u, m.dsts, m.attempts); err != nil {
				return err
			}
			recycle(i, m.dsts)
		}
		if r.Done != nil {
			r.Done(d.st.Edges - mark)
		}
	}
	return nil
}

// emit writes one scope and counts it.
func (d *drive) emit(src int64, dsts []int64, attempts int64) error {
	n := int64(len(dsts))
	var err error
	if d.rate != nil {
		start := time.Now()
		err = d.w.WriteScope(src, dsts)
		d.write += time.Since(start)
		d.rate.Add(n)
	} else {
		err = d.w.WriteScope(src, dsts)
	}
	if err != nil {
		return err
	}
	d.st.Scopes++
	d.st.Edges += n
	d.st.Attempts += attempts
	d.st.MaxDegree = max(d.st.MaxDegree, n)
	if d.opt.OnScope != nil {
		d.opt.OnScope(src, len(dsts))
	}
	return nil
}

// inline draws every scope on the calling goroutine into one reused
// buffer; its draw time is what the writes leave of the wall time.
func (d *drive) inline(ctx context.Context) error {
	p := &d.prods[0]
	start := time.Now()
	defer func() { p.wall = time.Since(start) - d.write }()
	done := ctx.Done()
	var buf []int64
	return d.consume(func(ri int, u, _ int64) scopeMsg {
		select {
		case <-done:
			return scopeMsg{err: ctx.Err()}
		default:
			return p.scope(d.runs, ri, u, buf)
		}
	}, func(_ int64, b []int64) { buf = b })
}

// fanIn runs one goroutine per producer; scope i belongs to producer
// i mod W, which sends it on its own channel, and the writer reads the
// channels round-robin. Each producer circulates Depth+1 buffers and
// blocks when none is free, so a stalled writer stops every producer
// within W·(Depth+1) scopes. A producer's draw time is its wall time,
// so it includes waiting on a stalled writer.
func (d *drive) fanIn(ctx context.Context) error {
	depth := d.opt.Depth
	if depth < 1 {
		depth = DefaultDepth
	}
	w := int64(len(d.prods))
	ctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	out := make([]chan scopeMsg, w)
	free := make([]chan []int64, w)
	for p := range out {
		out[p] = make(chan scopeMsg, depth)
		free[p] = make(chan []int64, depth+1)
		for j := 0; j <= depth; j++ {
			free[p] <- nil
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer close(out[p])
			pr := &d.prods[p]
			start := time.Now()
			defer func() { pr.wall = time.Since(start) }()
			var i int64
			for ri := range d.runs {
				for u := d.runs[ri].Lo; u < d.runs[ri].Hi; u, i = u+1, i+1 {
					if i%w != int64(p) {
						continue
					}
					var buf []int64
					select {
					case buf = <-free[p]:
					case <-ctx.Done():
						return
					}
					m := pr.scope(d.runs, ri, u, buf[:0])
					select {
					case out[p] <- m:
					case <-ctx.Done():
						return
					}
					if m.err != nil {
						return
					}
				}
			}
		}(p)
	}
	return d.consume(func(_ int, _, i int64) scopeMsg {
		select {
		case m, ok := <-out[i%w]:
			if !ok {
				// A producer only quits early on cancellation.
				return scopeMsg{err: ctx.Err()}
			}
			return m
		case <-ctx.Done():
			return scopeMsg{err: ctx.Err()}
		}
	}, func(i int64, buf []int64) { free[i%w] <- buf })
}

// settle folds the producers' accounts into the stats and publishes
// the stages and totals. Producers have exited by now.
func (d *drive) settle() {
	var build, draw time.Duration
	var builds int64
	for i := range d.prods {
		p := &d.prods[i]
		d.st.PeakWorkerBytes = max(d.st.PeakWorkerBytes, p.acct.Peak())
		build, draw, builds = build+p.build, draw+p.wall-p.build, builds+p.builds
	}
	if tel := d.opt.Tel; tel != nil {
		tel.Stage(StageRecvecBuild).Observe(build, builds)
		tel.Stage(StageScopeDraw).Observe(draw, d.st.Scopes)
		tel.Stage(StageSinkWrite).Observe(d.write, d.st.Edges)
		tel.Counter(MetricScopes).Add(d.st.Scopes)
		tel.Counter(MetricEdges).Add(d.st.Edges)
		tel.Counter(MetricAttempts).Add(d.st.Attempts)
		tel.Counter(MetricBytes).Add(d.st.BytesWritten)
	}
}
