package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/spec"
)

// serveMix is the job mix of the serve workload: small (scale 11, iters
// 2) runs of every workload class, so the per-job costs of the service
// itself — HTTP, spec hashing, queueing, system construction — show.
var serveMix = []string{"bfs", "pr", "sssp", "kmeans", "hotspot", "p2p", "sync", "train"}

const (
	serveClients = 2
	serveWorkers = 2
	// repeatEvery makes every 4th submission repeat one of the three
	// before it, so the result cache and in-flight dedup serve a known
	// 25% of submissions.
	repeatEvery = 4
)

// serveDistinct is distinct spec d of a stream; kinds cycle through the mix.
func serveDistinct(seed int64, stream, d int) spec.Spec {
	return spec.Spec{Kind: spec.KindSim, Workload: serveMix[d%len(serveMix)], Scale: 11, Iters: 2,
		Seed: derive(seed, stream, d)}
}

// serveSpec is timed submission k. A repeat looks back at most three
// submissions, far inside the server's 64-entry result cache, so it is
// always served from the cache or deduplicated against the in-flight job.
func serveSpec(seed int64, k int) spec.Spec {
	if k%repeatEvery == repeatEvery-1 {
		k -= 1 + int(derive(seed, streamRepeat, k)%(repeatEvery-1))
	}
	return serveDistinct(seed, streamServe, k-k/repeatEvery)
}

// service is one in-process dlserve: a serve.Server behind a loopback
// listener, with one client per closed-loop caller.
type service struct {
	srv     *serve.Server
	ts      *httptest.Server
	clients []*client.Client
}

// runner is serve.Config.Runner's signature; nil selects the real one.
type runner = func(ctx context.Context, sp spec.Spec, progress func(done, total int), coll *metrics.Collector) (*serve.Result, error)

func startService(ctx context.Context, run runner) (*service, error) {
	srv := serve.NewServer(serve.Config{Workers: serveWorkers, Runner: run})
	s := &service{srv: srv, ts: httptest.NewServer(srv)}
	for i := 0; i < serveClients; i++ {
		s.clients = append(s.clients, client.New(s.ts.URL))
	}
	h, err := s.clients[0].Health(ctx)
	if err == nil && h.Status != "ok" {
		err = fmt.Errorf("health status %q", h.Status)
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("dlserve health check: %w", err)
	}
	return s, nil
}

// close drains the server, so every worker has exited, then stops the
// listener.
func (s *service) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Drain(ctx) // on timeout Drain cancels the jobs and still waits for the workers
	s.ts.Close()
}

// submission is one submit→result round trip.
type submission struct {
	spec     spec.Spec
	hash     string
	latency  time.Duration
	text     digest // sha256 of the result body
	hit      bool   // served from the cache or deduplicated
	rejected bool   // 429
	err      error
	status   serve.JobStatus // final status (traced runs only)
}

// roundTrip submits sp and waits for its result bytes. With a tracer it
// records spans around the client calls and reads the final job status
// after the timed interval.
func (s *service) roundTrip(ctx context.Context, c *client.Client, sp spec.Spec, tr *tracer) *submission {
	sub := &submission{spec: sp}
	sub.hash, sub.err = sp.Hash()
	if sub.err != nil {
		return sub
	}
	root, id := -1, -1
	job := sub.hash[:12] // the server-side spans carry the same id
	if tr != nil {
		root = tr.begin(spanJob, job, -1)
		id = tr.begin(spanSubmit, job, root)
	}
	start := time.Now()
	st, err := c.Submit(ctx, sp)
	if tr != nil {
		tr.end(id)
	}
	if err != nil {
		sub.rejected = client.StatusCode(err) == http.StatusTooManyRequests
		sub.err = fmt.Errorf("submit: %w", err)
		if tr != nil {
			tr.end(root)
		}
		return sub
	}
	sub.hit = st.Cached || st.Deduped
	if tr != nil {
		id = tr.begin(spanResult, job, root)
	}
	body, err := c.Result(ctx, st.ID, true)
	sub.latency = time.Since(start)
	if tr != nil {
		tr.end(id)
		tr.end(root)
	}
	if err != nil {
		sub.err = fmt.Errorf("result: %w", err)
		return sub
	}
	sub.text = sha256.Sum256(body)
	if tr != nil {
		if sub.status, err = c.Status(ctx, st.ID); err != nil {
			sub.err = fmt.Errorf("status: %w", err)
		}
	}
	return sub
}

// loop drives the closed-loop clients for d and returns every submission
// by index with the loop's wall time.
func (s *service) loop(ctx context.Context, seed int64, d time.Duration, tr *tracer) (map[int]*submission, time.Duration) {
	var mu sync.Mutex
	subs := make(map[int]*submission)
	wall := closedLoop(serveClients, d, max(minTimedJobs, 2*repeatEvery), func(c, k int) {
		sub := s.roundTrip(ctx, s.clients[c], serveSpec(seed, k), tr)
		mu.Lock()
		subs[k] = sub
		mu.Unlock()
	})
	return subs, wall
}

// verify is the serve workload's correctness gate. Each distinct spec is
// run directly (RunSim + Report, the dlsim path) and every submission of
// it, in every phase, must have returned exactly those bytes. Within each
// phase (one server), exactly the repeated submissions of a spec must
// have been served from the cache or deduplicated. It returns the direct
// outcome per hash and the hashes in first-submission order.
func verify(phases []map[int]*submission, workers int, direct func(spec.Spec) (outcome, error)) (map[string]outcome, []string, []string) {
	var order []string
	var failures []string
	first := make(map[string]spec.Spec)
	type group struct{ subs, hits int }
	for p, subs := range phases {
		keys := make([]int, 0, len(subs))
		for k := range subs {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		groups := make(map[string]*group)
		for _, k := range keys {
			sub := subs[k]
			if sub.err != nil {
				failures = append(failures, fmt.Sprintf("submission %d: %v", k, sub.err))
				continue
			}
			if _, ok := first[sub.hash]; !ok {
				first[sub.hash] = sub.spec
				order = append(order, sub.hash)
			}
			g := groups[sub.hash]
			if g == nil {
				g = &group{}
				groups[sub.hash] = g
			}
			g.subs++
			if sub.hit {
				g.hits++
			}
		}
		for h, g := range groups {
			if g.hits != g.subs-1 {
				failures = append(failures, fmt.Sprintf("phase %d, %s: %d of %d submissions served from the cache, want %d",
					p, h[:12], g.hits, g.subs, g.subs-1))
			}
		}
	}

	outs := make(map[string]outcome)
	var mu sync.Mutex
	closedLoop(workers, 0, len(order), func(_, i int) {
		h := order[i]
		o, err := direct(first[h])
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			failures = append(failures, fmt.Sprintf("direct run of %s: %v", h[:12], err))
			return
		}
		o.Digest = sha256.Sum256(o.Text) // served bodies carry the report only
		o.Text, o.JSON = nil, nil
		outs[h] = o
	})
	for _, subs := range phases {
		for k, sub := range subs {
			if o, ok := outs[sub.hash]; ok && sub.err == nil && sub.text != o.Digest {
				failures = append(failures, fmt.Sprintf("submission %d (%s %s): served bytes differ from the direct run",
					k, sub.spec.Workload, sub.hash[:12]))
			}
		}
	}
	return outs, order, failures
}

// serveWorkload is the dlserve submit→result round trip.
type serveWorkload struct{}

// setup starts a server, checks its health and runs one warm-up pass of
// the mix (on a seed the timed loop never uses) through both clients,
// verified against direct runs.
func (serveWorkload) setup(ctx context.Context, seed int64, r int) (*service, []digest, error) {
	s, err := startService(ctx, nil)
	if err != nil {
		return nil, nil, err
	}
	var mu sync.Mutex
	subs := make(map[int]*submission)
	closedLoop(serveClients, 0, len(serveMix), func(c, i int) {
		sub := s.roundTrip(ctx, s.clients[c], serveDistinct(seed, streamSetup, r*len(serveMix)+i), nil)
		mu.Lock()
		subs[i] = sub
		mu.Unlock()
	})
	_, _, failures := verify([]map[int]*submission{subs}, serveWorkers, directRun)
	if len(failures) > 0 {
		s.close()
		return nil, nil, fmt.Errorf("warm-up pass %d: %s", r, failures[0])
	}
	var ds []digest
	for i := range serveMix {
		ds = append(ds, subs[i].text)
	}
	return s, ds, nil
}

func directRun(sp spec.Spec) (outcome, error) { return runJob(sp, serial) }

// startTimed runs the set-up repetitions and keeps the last server for
// the timed loop.
func (w serveWorkload) startTimed(ctx context.Context, seed int64, rep *report) (*service, []float64, error) {
	var s *service
	var setups []float64
	for r := 0; r < setupReps; r++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var ds []digest
		var err error
		if s, ds, err = w.setup(ctx, seed, r); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		rep.digests = append(rep.digests, ds...)
	}
	return s, setups, nil
}

func (w serveWorkload) run(seed int64, d time.Duration) (*report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d+2*time.Minute)
	defer cancel()
	rep := &report{}
	s, setups, err := w.startTimed(ctx, seed, rep)
	if err != nil {
		return nil, err
	}
	subs, wall := s.loop(ctx, seed, d, nil)
	s.close()

	outs, _, failures := verify([]map[int]*submission{subs}, serveWorkers, directRun)
	var lat []float64
	var events uint64
	for k := 0; k < len(subs); k++ {
		sub := subs[k]
		if sub.err != nil {
			continue
		}
		lat = append(lat, ms(sub.latency))
		if !sub.hit {
			events += outs[sub.hash].Counts.Events
		}
		if k < 2*repeatEvery {
			rep.digests = append(rep.digests, sub.text)
		}
	}
	rep.latency(lat, wall, len(lat))
	rep.e2e["sim_events_per_s"] = metric{float64(events) / wall.Seconds(), "events/s"}
	rep.e2e["setup_s"] = metric{median(setups), "s"}
	rep.attempted, rep.failures = len(subs), failures
	return rep, nil
}

// runTrace is the separate traced run: half the time against the real
// runner (the untraced reference), then half against a server whose
// Runner executes runTraced, with spans around the client calls. Every
// distinct spec is then re-run directly, one at a time, which gives the
// per-job allocation counts and pins both halves to the same bytes.
func (w serveWorkload) runTrace(seed int64, d time.Duration) (*report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d+2*time.Minute)
	defer cancel()
	rep := &report{}
	s, _, err := w.startTimed(ctx, seed, rep)
	if err != nil {
		return nil, err
	}
	plain, _ := s.loop(ctx, seed, d/2, nil)
	s.close()
	for k := 0; k < 2*repeatEvery; k++ {
		rep.digests = append(rep.digests, plain[k].text)
	}

	tr := newTracer()
	var mu sync.Mutex
	var served []outcome
	tracedRunner := func(ctx context.Context, sp spec.Spec, _ func(int, int), coll *metrics.Collector) (*serve.Result, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		h, _ := sp.Hash()
		o, err := runTraced(tr, h[:12], spanExecute, sp, serial, coll)
		if err != nil {
			return nil, err
		}
		res := &serve.Result{Text: o.Text, JSON: o.JSON}
		o.Text, o.JSON = nil, nil
		mu.Lock()
		served = append(served, o)
		mu.Unlock()
		return res, nil
	}
	if s, err = startService(ctx, tracedRunner); err != nil {
		return nil, err
	}
	traced, _ := s.loop(ctx, seed, d/2, tr)
	s.close()

	// The direct re-runs go one at a time so Workload.Run's allocation
	// count is the job's own; their spans are not part of the report.
	trDirect := newTracer()
	outs, order, failures := verify([]map[int]*submission{plain, traced}, 1, func(sp spec.Spec) (outcome, error) {
		return runTraced(trDirect, "", spanJob, sp, serial, nil)
	})

	var model modelCounts
	var direct []outcome
	for i, h := range order {
		if i < len(serveMix) {
			model.add(outs[h].Counts)
		}
		direct = append(direct, outs[h])
	}
	spans := tr.snapshot()
	rep.layers = layerMetrics(spans, served, model)
	rep.layers["sim.allocs_per_event"] = allocsPerEvent(direct)

	var plainLat, tracedLat, wait, run, overhead, submit []float64
	hits, rejected := 0, 0
	for _, sub := range plain {
		if sub.err == nil {
			plainLat = append(plainLat, ms(sub.latency))
		}
	}
	for _, sub := range traced {
		if sub.rejected {
			rejected++
		}
		if sub.err != nil {
			continue
		}
		tracedLat = append(tracedLat, ms(sub.latency))
		if sub.hit {
			hits++
			continue
		}
		wait = append(wait, sub.status.WaitMS)
		run = append(run, sub.status.RunMS)
		overhead = append(overhead, ms(sub.latency)-sub.status.WaitMS-sub.status.RunMS)
	}
	submit = durationsMS(spans, spanSubmit)
	rep.layers["serve.submit_ms"] = metric{median(submit), "ms"}
	rep.layers["serve.wait_ms"] = metric{median(wait), "ms"}
	rep.layers["serve.run_ms"] = metric{median(run), "ms"}
	rep.layers["serve.overhead_ms"] = metric{median(overhead), "ms"}
	rep.layers["serve.cache_hit_ratio"] = metric{ratio(float64(hits), float64(len(traced))), "ratio"}
	rep.layers["serve.rejected"] = metric{float64(rejected), "count"}
	rep.layers["trace.overhead_ratio"] = metric{ratio(sum(tracedLat)/float64(len(tracedLat)), sum(plainLat)/float64(len(plainLat))), "ratio"}
	rep.spans = spans
	rep.attempted, rep.failures = len(plain)+len(traced), failures
	return rep, nil
}
