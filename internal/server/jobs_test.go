package server

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gformat"
	"repro/internal/sched"
)

func TestJobSpecDefaults(t *testing.T) {
	c, err := JobSpec{Scale: 10}.compile(specLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if c.cfg.EdgeFactor != 16 || c.cfg.MasterSeed != 1 {
		t.Fatalf("defaults not applied: %+v", c.cfg)
	}
	if c.cfg.Seed.A != 0.57 {
		t.Fatalf("seed default %+v", c.cfg.Seed)
	}
	if c.format != gformat.TSV || c.lo != 0 || c.hi != 1024 {
		t.Fatalf("format %v range [%d, %d)", c.format, c.lo, c.hi)
	}
	// A default job is the batch default config, sampler included, so
	// its stream is the batch CLI's bytes.
	if want := core.DefaultConfig(10); c.cfg != want {
		t.Fatalf("default job config %+v, want core.DefaultConfig %+v", c.cfg, want)
	}
}

func TestJobSpecExplicit(t *testing.T) {
	lo, hi := int64(16), int64(48)
	spec := JobSpec{
		Scale:      8,
		EdgeFactor: 4,
		Seed:       &[4]float64{0.25, 0.25, 0.25, 0.25},
		Noise:      0.1,
		MasterSeed: 7,
		Workers:    2,
		Format:     "adj6",
		Lo:         &lo,
		Hi:         &hi,
	}
	c, err := spec.compile(specLimits{maxScale: 20, maxWorkersPerJob: 8})
	if err != nil {
		t.Fatal(err)
	}
	if c.format != gformat.ADJ6 || c.lo != 16 || c.hi != 48 {
		t.Fatalf("format %v range [%d, %d)", c.format, c.lo, c.hi)
	}
	if c.workers != 2 || c.cfg.NoiseParam != 0.1 || c.cfg.MasterSeed != 7 {
		t.Fatalf("workers %d, cfg %+v", c.workers, c.cfg)
	}
}

func TestJobSpecRejections(t *testing.T) {
	neg, big := int64(-1), int64(1<<40)
	bad := []JobSpec{
		{Scale: 0},                                 // invalid scale
		{Scale: 48},                                // above core limit
		{Scale: 25},                                // above server limit (20 below)
		{Scale: 10, Format: "csr6"},                // not streamable
		{Scale: 10, Format: "nope"},                // unknown format
		{Scale: 10, Lo: &neg},                      // negative lo
		{Scale: 10, Hi: &big},                      // beyond |V|
		{Scale: 10, Workers: -1},                   // negative workers
		{Scale: 10, Seed: &[4]float64{1, 1, 1, 1}}, // seed doesn't sum to 1
		{Scale: 10, Noise: 0.9},                    // inadmissible noise
		{Scale: 10, Lo: &big, Hi: &big},            // lo beyond |V|
	}
	for i, spec := range bad {
		if _, err := spec.compile(specLimits{maxScale: 20, maxWorkersPerJob: 4}); err == nil {
			t.Fatalf("spec %d (%+v) accepted", i, spec)
		}
	}
}

func TestJobSpecWorkerCap(t *testing.T) {
	c, err := JobSpec{Scale: 10, Workers: 64}.compile(specLimits{maxWorkersPerJob: 4})
	if err != nil {
		t.Fatal(err)
	}
	if c.workers != 4 {
		t.Fatalf("workers %d, want cap 4", c.workers)
	}
	c, err = JobSpec{Scale: 10}.compile(specLimits{maxWorkersPerJob: 4})
	if err != nil {
		t.Fatal(err)
	}
	if c.workers != 4 {
		t.Fatalf("unset workers %d, want server default 4", c.workers)
	}
}

func addJob(t *testing.T, r *registry, spec JobSpec) *Job {
	t.Helper()
	c, err := spec.compile(specLimits{})
	if err != nil {
		t.Fatal(err)
	}
	j, err := r.add(spec, sched.DefaultTenant, sched.Batch, 1, c)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestRegistryLifecycle(t *testing.T) {
	r := newRegistry(8, 0)
	j := addJob(t, r, JobSpec{Scale: 8})
	if j.ID != "j00000001" {
		t.Fatalf("id %q", j.ID)
	}
	got, ok := r.get(j.ID)
	if !ok || got != j {
		t.Fatal("lookup failed")
	}
	if _, ok := r.get("j99999999"); ok {
		t.Fatal("phantom job")
	}
	st := j.Status()
	if st.State != StatePending || st.ScopesTotal != 256 || st.Progress != 0 {
		t.Fatalf("status %+v", st)
	}

	_, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, ok := j.tryQueue(cancel); !ok {
		t.Fatal("tryQueue failed on pending job")
	}
	if st := j.State(); st != StateQueued {
		t.Fatalf("state %v after tryQueue", st)
	}
	if _, ok := j.tryRun(); !ok {
		t.Fatal("tryRun failed on queued job")
	}
	if prev, ok := j.tryQueue(cancel); ok || prev != StateRunning {
		t.Fatalf("second tryQueue: ok=%v prev=%v", ok, prev)
	}
	j.finish(nil, nil)
	if j.State() != StateDone {
		t.Fatalf("state %v", j.State())
	}
	// finish is sticky: a late cancel must not overwrite the outcome.
	j.Cancel()
	if j.State() != StateDone {
		t.Fatalf("cancel overwrote terminal state: %v", j.State())
	}
	if len(r.list()) != 1 {
		t.Fatalf("list %v", r.list())
	}
}

func TestRegistryCancelPending(t *testing.T) {
	r := newRegistry(8, 0)
	j := addJob(t, r, JobSpec{Scale: 8})
	j.Cancel()
	if j.State() != StateCanceled {
		t.Fatalf("state %v", j.State())
	}
	if _, ok := j.tryQueue(func() {}); ok {
		t.Fatal("canceled job queued")
	}
}

// TestJobUnqueueRetryable: a queued job whose admission is rejected or
// shed returns to pending and can be queued again.
func TestJobUnqueueRetryable(t *testing.T) {
	r := newRegistry(8, 0)
	j := addJob(t, r, JobSpec{Scale: 8})
	if _, ok := j.tryQueue(func() {}); !ok {
		t.Fatal("tryQueue failed")
	}
	j.unqueue()
	if st := j.State(); st != StatePending {
		t.Fatalf("state %v after unqueue, want pending", st)
	}
	if _, ok := j.tryQueue(func() {}); !ok {
		t.Fatal("retry after unqueue refused")
	}
}

func TestRegistryEviction(t *testing.T) {
	r := newRegistry(2, 0)
	a := addJob(t, r, JobSpec{Scale: 8})
	addJob(t, r, JobSpec{Scale: 8})

	// Both slots hold fresh pending jobs: admission must fail.
	full, _ := JobSpec{Scale: 8}.compile(specLimits{})
	if _, err := r.add(JobSpec{Scale: 8}, sched.DefaultTenant, sched.Batch, 1, full); err == nil {
		t.Fatal("overfull registry accepted a job")
	}

	// A terminal job frees its slot for the next admission.
	a.Cancel()
	c := addJob(t, r, JobSpec{Scale: 8})
	if _, ok := r.get(a.ID); ok {
		t.Fatal("evicted job still listed")
	}
	if _, ok := r.get(c.ID); !ok {
		t.Fatal("new job missing")
	}
}

// TestRegistryEvictsStalePending: with every slot pending, eviction
// reclaims the oldest job past the pending TTL — and that job is marked
// canceled first, so a racing stream request holding the stale *Job can
// never queue (and therefore never be dispatched).
func TestRegistryEvictsStalePending(t *testing.T) {
	r := newRegistry(2, time.Minute)
	base := time.Unix(1000, 0)
	r.now = func() time.Time { return base }
	stale := addJob(t, r, JobSpec{Scale: 8})

	// Second job created within the TTL window: not evictable.
	r.now = func() time.Time { return base.Add(30 * time.Second) }
	fresh := addJob(t, r, JobSpec{Scale: 8})

	// Past the first job's TTL, admission evicts it — not the fresh one.
	r.now = func() time.Time { return base.Add(90 * time.Second) }
	c := addJob(t, r, JobSpec{Scale: 8})
	if _, ok := r.get(stale.ID); ok {
		t.Fatal("stale pending job still listed")
	}
	if _, ok := r.get(fresh.ID); !ok {
		t.Fatal("fresh pending job evicted")
	}
	if _, ok := r.get(c.ID); !ok {
		t.Fatal("new job missing")
	}

	// The evicted job is terminal and refuses to queue: it can never be
	// handed to the scheduler, so an evicted job is never dispatched.
	if st := stale.State(); st != StateCanceled {
		t.Fatalf("evicted job state %v, want canceled", st)
	}
	if _, ok := stale.tryQueue(func() {}); ok {
		t.Fatal("evicted job accepted a queue transition")
	}

	// Queued jobs are never evicted even when stale: they own a live
	// scheduler waiter.
	if _, ok := fresh.tryQueue(func() {}); !ok {
		t.Fatal("tryQueue failed")
	}
	if _, ok := c.tryQueue(func() {}); !ok {
		t.Fatal("tryQueue failed")
	}
	r.now = func() time.Time { return base.Add(time.Hour) }
	c2, _ := JobSpec{Scale: 8}.compile(specLimits{})
	if _, err := r.add(JobSpec{Scale: 8}, sched.DefaultTenant, sched.Batch, 1, c2); err == nil {
		t.Fatal("registry evicted a queued job")
	}
}
