package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"gridstrat"
	"gridstrat/internal/core"
	"gridstrat/internal/server"
	"gridstrat/internal/stats"
	"gridstrat/internal/trace"
	"gridstrat/internal/wal"
)

// The traced run replays a sample of the workload's seeded sequence
// in-process, with a span around each call the benchmark makes into a
// layer's public API. The program itself is not instrumented: where a
// layer's call contains the next layer's work (a handler contains the
// Planner, the Planner contains core's optimizers), the inner calls are
// replayed beside it with the same inputs on the same warm model, and
// the outer layer's self time is its span minus those replays.

// span is one timed call. Start and End are nanoseconds since the
// tracer's origin; Parent indexes the span that caused it (-1 for a
// request); Op is the sample operation it belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory. Calls on a nil tracer only run the
// timed function, which is how the untraced pass runs the same code.
type tracer struct {
	origin time.Time
	spans  []span
	stack  []int
	op     int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// request opens the root span of sample operation op; close it with
// the returned function.
func (t *tracer) request(op int) func() {
	if t == nil {
		return func() {}
	}
	t.op = op
	t.stack = t.stack[:0]
	i := t.open("request")
	return func() { t.close(i) }
}

func (t *tracer) open(name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.origin)), Parent: parent, Op: t.op})
	t.stack = append(t.stack, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) close(i int) {
	t.spans[i].End = int64(time.Since(t.origin))
	t.stack = t.stack[:len(t.stack)-1]
}

// timed runs f inside a span called name and returns f's error.
func (t *tracer) timed(name string, f func() error) error {
	if t == nil {
		return f()
	}
	i := t.open(name)
	err := f()
	t.close(i)
	return err
}

// durations returns the durations of every span called name, in
// microseconds, and the per-op sums of those durations.
func (t *tracer) durations(name string) (all []float64, byOp map[int]float64) {
	byOp = map[int]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			d := float64(s.End-s.Start) / 1e3
			all = append(all, d)
			byOp[s.Op] += d
		}
	}
	return all, byOp
}

// medianUs is the median duration of the spans called name, in µs.
func (t *tracer) medianUs(name string) float64 {
	all, _ := t.durations(name)
	return median(all)
}

// selfUs is the median over ops of the summed duration of the spans
// called outer minus the summed duration of the spans called inner
// (the replays of the work outer contains), in µs.
func (t *tracer) selfUs(outer string, inner ...string) float64 {
	_, out := t.durations(outer)
	var diffs []float64
	for op, d := range out {
		for _, name := range inner {
			_, in := t.durations(name)
			d -= in[op]
		}
		diffs = append(diffs, d)
	}
	return median(diffs)
}

// sinkWriter is a reusable ResponseWriter that keeps the status and
// body, so a replayed handler call allocates only what the handler
// itself allocates.
type sinkWriter struct {
	h      http.Header
	status int
	body   []byte
}

func (w *sinkWriter) Header() http.Header { return w.h }
func (w *sinkWriter) WriteHeader(s int)   { w.status = s }
func (w *sinkWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.body = append(w.body, b...)
	return len(b), nil
}
func (w *sinkWriter) reset() { clear(w.h); w.status = 0; w.body = w.body[:0] }

// serve runs one request through an in-process handler.
func serve(h http.Handler, w *sinkWriter, method, path string, body []byte) error {
	w.reset()
	h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(string(body))))
	if w.status != http.StatusOK && w.status != http.StatusCreated {
		return fmt.Errorf("%s %s: status %d: %s", method, path, w.status, w.body)
	}
	return nil
}

// residentMiB reads /v1/stats totals resident_bytes of an in-process
// server.
func residentMiB(h http.Handler) (float64, error) {
	w := &sinkWriter{h: http.Header{}}
	if err := serve(h, w, http.MethodGet, "/v1/stats", nil); err != nil {
		return 0, err
	}
	var s struct {
		Totals registryTotals `json:"totals"`
	}
	if err := json.Unmarshal(w.body, &s); err != nil {
		return 0, err
	}
	return float64(s.Totals.ResidentBytes) / (1 << 20), nil
}

// delayedRatios is the Planner's delayed-strategy sweep: the ratio
// t∞/t0 from 1.1 to 2.0 in steps of 0.1.
var delayedRatios = []float64{1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0}

// Sample sizes of the traced run.
const (
	tracedPlans   = 6    // option-bearing recommends
	tracedReads   = 2000 // in-process cached reads
	tracedPairs   = 400  // router-vs-direct round-trip pairs
	tracedBatches = 8    // observation batches
	tracedBurst   = 3    // seconds of open-loop reads through the router
)

// layerRun is the state one traced run accumulates.
type layerRun struct {
	e       *env
	t       *tracer
	metrics map[string]metric
	notes   []string
	tally   tally
}

func (l *layerRun) put(name string, v float64, unit string) { l.metrics[name] = metric{v, unit} }

// runTraced measures every layer and reports the per-layer metrics.
func runTraced(workload string, e *env) (result, error) {
	l := &layerRun{e: e, t: newTracer(), metrics: map[string]metric{}}
	// The live cluster goes first, before the in-process servers grow
	// this process's heap and its collector competes with the sender.
	steps := []func(string) error{l.cluster, l.planning, l.cachedReads, l.ingest}
	for _, step := range steps {
		if err := step(workload); err != nil {
			return result{}, err
		}
	}
	l.put("wire.loopback_us", l.t.medianUs("wire.direct")-l.metrics["server.handler_cached_us"].Value, "us")
	path := filepath.Join(e.work, fmt.Sprintf("spans-%s-%d.json", workload, e.seed))
	doc, err := json.Marshal(l.t.spans)
	if err != nil {
		return result{}, err
	}
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		return result{}, err
	}
	names := make([]string, 0, len(l.metrics))
	for n := range l.metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	fmt.Printf("traced %s: %d spans written to %s\n", workload, len(l.t.spans), path)
	for _, n := range names {
		fmt.Printf("  %-32s %14.4f %s\n", n, l.metrics[n].Value, l.metrics[n].Unit)
	}
	for _, n := range l.notes {
		fmt.Println("  " + n)
	}
	if l.tally.firstErr != "" {
		fmt.Println("  first failure: " + l.tally.firstErr)
	}
	return result{
		Correct:   l.tally.failed() == 0,
		Attempted: max(l.tally.attempted, 1),
		Failed:    l.tally.failed(),
		Metrics:   l.metrics,
	}, nil
}

// overhead reports the tracing overhead of the workload's own
// operation: the median traced span minus the median untraced call.
func (l *layerRun) overhead(workload, name string, traced []float64, untraced []float64) {
	tm, um := median(traced), median(untraced)
	l.notes = append(l.notes, fmt.Sprintf("%s tracing overhead on %s: %+.3f µs (traced %.3f µs, untraced %.3f µs, %+.2f%%)",
		workload, name, tm-um, tm, um, 100*(tm-um)/um))
}

// planning replays option-bearing recommends: handler, Planner, core
// and stats, and the cheapest-configuration search no workload carries.
func (l *layerRun) planning(workload string) error {
	srv := server.MustNew(server.Config{})
	if err := srv.Preload(planModels...); err != nil {
		return err
	}
	h := srv.Handler()
	w := &sinkWriter{h: http.Header{}}
	warm := newPlanGen(l.e.seed, saltWarm)
	for _, m := range planModels {
		for b := 2; b <= 5; b++ {
			req := warm.next()
			req.Opts.MaxParallel = float64(b) + 0.5
			if err := serve(h, w, http.MethodPost, "/v1/models/"+m+"/recommend", planBody(req.Opts)); err != nil {
				return err
			}
		}
	}
	type fixture struct {
		model core.Model
		ecdf  *stats.ECDF
		rho   float64
		dp    core.DelayedParams
	}
	fx := map[string]fixture{}
	for _, m := range planModels {
		ent, err := srv.Registry().Get(m)
		if err != nil {
			return err
		}
		st := ent.State()
		ecdf, err := st.Trace.ECDF()
		if err != nil {
			return err
		}
		dp, _, err := core.OptimizeDelayedCtx(context.Background(), st.Model, runtime.GOMAXPROCS(0))
		if err != nil {
			return err
		}
		fx[m] = fixture{st.Model, ecdf, st.Trace.OutlierRatio(), dp}
	}
	ctx := context.Background()
	workers := runtime.GOMAXPROCS(0)
	gen := newPlanGen(l.e.seed, saltPlan)
	sample := make([]planReq, tracedPlans)
	for i := range sample {
		sample[i] = gen.next()
	}
	handler := func(t *tracer, req planReq) error {
		return t.timed("server.handler_plan", func() error {
			return serve(h, w, http.MethodPost, "/v1/models/"+req.Model+"/recommend", req.Body)
		})
	}
	var untraced []float64
	for _, req := range sample {
		start := time.Now()
		if l.tally.record(handler(nil, req), http.StatusOK, nil) {
			untraced = append(untraced, float64(time.Since(start))/1e3)
		}
	}
	t := l.t
	for i, req := range sample {
		f := fx[req.Model]
		b := int(req.Opts.MaxParallel)
		done := t.request(i)
		err := handler(t, req)
		if err == nil {
			err = t.timed("planner.recommend_warm", func() error {
				p, err := gridstrat.NewPlanner(f.model, gridstrat.WithMaxParallel(req.Opts.MaxParallel),
					gridstrat.WithDeadline(req.Opts.DeadlineS), gridstrat.WithBudget(req.Opts.Budget))
				if err != nil {
					return err
				}
				_, err = p.Recommend()
				return err
			})
		}
		if err == nil {
			err = t.timed("core.optimize_multiple", func() error {
				_, _, err := core.OptimizeMultipleCtx(ctx, f.model, b, workers)
				return err
			})
		}
		for _, ratio := range delayedRatios {
			if err == nil {
				err = t.timed("core.optimize_delayed_ratio", func() error {
					_, _, err := core.OptimizeDelayedRatioCtx(ctx, f.model, ratio, workers)
					return err
				})
			}
		}
		if err == nil {
			err = t.timed("core.delayed_eval", func() error {
				_, err := core.DelayedEvaluate(f.model, f.dp)
				return err
			})
		}
		if err == nil {
			err = t.timed("core.nparallel_expected", func() error {
				core.NParallelExpected(f.model, f.dp)
				return nil
			})
		}
		if err == nil {
			grid := make([]float64, 512)
			for j := range grid {
				grid[j] = f.dp.TInf * 4 * float64(j+1) / float64(len(grid))
			}
			err = t.timed("stats.int_pow_batch", func() error {
				f.ecdf.IntegralOneMinusFPowBatch(grid, 1-f.rho, b)
				return nil
			})
		}
		done()
		l.tally.record(err, http.StatusOK, nil)
	}
	traced, _ := t.durations("server.handler_plan")
	if workload == "plan-options" {
		l.overhead(workload, "server.handler_plan", traced, untraced)
	}
	l.put("server.handler_plan_self_ms", t.selfUs("server.handler_plan", "planner.recommend_warm")/1e3, "ms")
	l.put("planner.recommend_warm_ms", t.medianUs("planner.recommend_warm")/1e3, "ms")
	l.put("planner.self_ms", t.selfUs("planner.recommend_warm", "core.optimize_multiple", "core.optimize_delayed_ratio")/1e3, "ms")
	l.put("core.optimize_multiple_ms", t.medianUs("core.optimize_multiple")/1e3, "ms")
	l.put("core.optimize_delayed_ratio_ms", t.medianUs("core.optimize_delayed_ratio")/1e3, "ms")
	l.put("core.delayed_eval_ms", t.medianUs("core.delayed_eval")/1e3, "ms")
	l.put("core.nparallel_expected_ms", t.medianUs("core.nparallel_expected")/1e3, "ms")
	l.put("stats.int_pow_batch_us", t.medianUs("stats.int_pow_batch"), "us")

	// The cheapest-configuration search (Eq. 6) runs seconds per call;
	// no workload carries it yet, so one call is recorded.
	m := sample[0].Model
	err := t.timed("planner.cheapest", func() error {
		p, err := gridstrat.NewPlanner(fx[m].model)
		if err != nil {
			return err
		}
		_, err = p.RecommendCheapest()
		return err
	})
	l.tally.record(err, http.StatusOK, nil)
	l.put("planner.cheapest_ms", t.medianUs("planner.cheapest")/1e3, "ms")
	if workload == "plan-options" {
		r, err := residentMiB(h)
		if err != nil {
			return err
		}
		l.put("server.resident_mb", r, "MiB")
	}
	return nil
}

// cachedReads replays option-free recommends through an in-process
// handler holding all 13 paper models.
func (l *layerRun) cachedReads(workload string) error {
	srv := server.MustNew(server.Config{})
	datasets := allDatasets()
	for _, d := range datasets {
		body, err := registration(d)
		if err != nil {
			return err
		}
		if err := serve(srv.Handler(), &sinkWriter{h: http.Header{}}, http.MethodPost, "/v1/models", body); err != nil {
			return err
		}
	}
	h := srv.Handler()
	reqs := make([]*http.Request, len(datasets))
	want := make([][]byte, len(datasets))
	var wg sync.WaitGroup
	errs := make([]error, len(datasets))
	sem := make(chan struct{}, 2)
	for i, d := range datasets {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/models/"+modelID(d)+"/recommend", http.NoBody)
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			w := &sinkWriter{h: http.Header{}}
			errs[i] = serve(h, w, http.MethodPost, "/v1/models/"+modelID(d)+"/recommend", nil)
			want[i] = w.body
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	seq := readSeq(l.e.seed, tracedReads, len(datasets))
	w := &sinkWriter{h: http.Header{}}
	check := func(m int) error {
		if w.status != http.StatusOK || string(w.body) != string(want[m]) {
			return fmt.Errorf("%s: cached answer changed (status %d)", datasets[m], w.status)
		}
		return nil
	}
	// Untraced pass: wall time and allocations per call.
	var untraced []float64
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for _, m := range seq {
		w.reset()
		start := time.Now()
		h.ServeHTTP(w, reqs[m])
		untraced = append(untraced, float64(time.Since(start))/1e3)
	}
	runtime.ReadMemStats(&ms1)
	// The timing slice grows by amortized doubling; its few
	// allocations are below a hundredth of one per call.
	l.put("server.handler_cached_allocs", float64(ms1.Mallocs-ms0.Mallocs)/float64(len(seq)), "count")
	t := l.t
	for i, m := range seq {
		done := t.request(i)
		err := t.timed("server.handler_cached", func() error {
			w.reset()
			h.ServeHTTP(w, reqs[m])
			return nil
		})
		done()
		l.tally.record(err, w.status, func() error { return check(m) })
	}
	traced, _ := t.durations("server.handler_cached")
	if workload == "serve-cached" {
		l.overhead(workload, "server.handler_cached", traced, untraced)
		r, err := residentMiB(h)
		if err != nil {
			return err
		}
		l.put("server.resident_mb", r, "MiB")
	}
	l.put("server.handler_cached_us", t.medianUs("server.handler_cached"), "us")
	return nil
}

// ingest replays observation batches on a memory-only and a durable
// in-process server, with the stats kernels a rebuild runs, the cold
// recommend that follows it and the WAL snapshot compaction.
func (l *layerRun) ingest(workload string) error {
	dir := filepath.Join(l.e.work, "traced-wal")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	mem := server.MustNew(server.Config{})
	dur, err := server.New(server.Config{WALDir: filepath.Join(dir, "server")})
	if err != nil {
		return err
	}
	if err := dur.Recover(); err != nil {
		return err
	}
	defer func() {
		for _, m := range planModels {
			dur.Registry().Delete(m)
		}
	}()
	pools := map[string]*obsPool{}
	for _, m := range planModels {
		if pools[m], err = newObsPool(m); err != nil {
			return err
		}
		for _, srv := range []*server.Server{mem, dur} {
			if err := srv.Preload(m); err != nil {
				return err
			}
		}
	}
	gen := newIngestGen(l.e.seed, saltIngest, pools)
	for _, b := range gen.settle() {
		for _, srv := range []*server.Server{mem, dur} {
			ent, err := srv.Registry().Get(b.Model)
			if err != nil {
				return err
			}
			if _, err := ent.Observe(b.Records, nil, obsSpacing); err != nil {
				return err
			}
		}
	}
	store, err := wal.NewStore(filepath.Join(dir, "snapshots"), wal.Options{})
	if err != nil {
		return err
	}
	t := l.t
	var untraced, traced []float64
	for i := range tracedBatches {
		b := gen.next()
		memEnt, err := mem.Registry().Get(b.Model)
		if err != nil {
			return err
		}
		durEnt, err := dur.Registry().Get(b.Model)
		if err != nil {
			return err
		}
		old := memEnt.State().Trace
		done := t.request(i)
		var res server.ObserveResult
		start := time.Now()
		err = t.timed("server.observe_sync", func() error {
			res, err = memEnt.Observe(b.Records, nil, obsSpacing)
			return err
		})
		traced = append(traced, float64(time.Since(start))/1e3)
		if err == nil {
			err = t.timed("server.observe_wal", func() error {
				_, err := durEnt.Observe(b.Records, nil, obsSpacing)
				return err
			})
		}
		if err == nil {
			err = l.rebuildKernels(res.State.Trace, old, b)
		}
		if err == nil {
			err = t.timed("planner.recommend_cold", func() error {
				p, err := gridstrat.NewPlanner(res.State.Model)
				if err != nil {
					return err
				}
				_, err = p.Recommend()
				return err
			})
		}
		if err == nil && i < len(planModels) {
			err = l.snapshot(store, res.State.Trace, memEnt.Window)
		}
		done()
		l.tally.record(err, http.StatusOK, nil)
		// Untraced: the same observe on a fresh copy of the window.
		start = time.Now()
		_, err = memEnt.Observe(b.Records, nil, obsSpacing)
		l.tally.record(err, http.StatusOK, nil)
		untraced = append(untraced, float64(time.Since(start))/1e3)
	}
	if workload == "ingest-fresh" {
		l.overhead(workload, "server.observe_sync", traced, untraced)
		r, err := residentMiB(mem.Handler())
		if err != nil {
			return err
		}
		l.put("server.resident_mb", r, "MiB")
	}
	l.put("server.observe_sync_us", t.medianUs("server.observe_sync"), "us")
	l.put("wal.append_us", t.selfUs("server.observe_wal", "server.observe_sync"), "us")
	l.put("planner.recommend_cold_ms", t.medianUs("planner.recommend_cold")/1e3, "ms")
	l.put("stats.ecdf_build_us", t.medianUs("stats.ecdf_build"), "us")
	l.put("stats.merge_evict_us", t.medianUs("stats.merge_evict"), "us")
	l.put("wal.snapshot_ms", t.medianUs("wal.snapshot")/1e3, "ms")
	return nil
}

// rebuildKernels times the two ECDF constructions a window rebuild can
// take: a fresh sort of the new window, and the merge of the batch
// into the old window's ECDF with the evicted probes removed.
func (l *layerRun) rebuildKernels(now, old *trace.Trace, b obsBatch) error {
	oldECDF, err := old.ECDF()
	if err != nil {
		return err
	}
	kept := make(map[int]bool, len(now.Records))
	for _, r := range now.Records {
		kept[r.ID] = true
	}
	var evict []float64
	for _, r := range old.Records {
		if !kept[r.ID] && r.Status == trace.StatusCompleted {
			evict = append(evict, r.Latency)
		}
	}
	var add []float64
	for _, r := range b.Records {
		if r.Status == trace.StatusCompleted {
			add = append(add, r.Latency)
		}
	}
	slices.Sort(evict)
	slices.Sort(add)
	lat := now.Latencies()
	var built, merged *stats.ECDF
	if err := l.t.timed("stats.ecdf_build", func() error {
		built, err = stats.NewECDF(lat)
		return err
	}); err != nil {
		return err
	}
	if err := l.t.timed("stats.merge_evict", func() error {
		merged, err = oldECDF.MergeSortedEvict(add, evict)
		return err
	}); err != nil {
		return err
	}
	if built.N() != merged.N() || built.N() != len(lat) {
		return fmt.Errorf("merged ECDF holds %d probes, fresh build %d, window %d", merged.N(), built.N(), len(lat))
	}
	return nil
}

// snapshot times one WAL compaction of a settled window.
func (l *layerRun) snapshot(store *wal.Store, tr *trace.Trace, window float64) error {
	log, _, _, err := store.Open(tr.Name)
	if err != nil {
		return err
	}
	defer log.Close()
	covered, err := log.Cut()
	if err != nil {
		return err
	}
	snap := wal.EntrySnapshot{Name: tr.Name, Timeout: tr.Timeout, Window: window, Version: 1, Records: tr.Records}
	return l.t.timed("wal.snapshot", func() error { return log.WriteSnapshot(snap, covered) })
}

// cluster measures the loopback wire and the router hop on live
// processes: paired round trips via the router and direct to the
// owning backend, then a burst of open-loop reads through the router.
func (l *layerRun) cluster(string) error {
	ctl := newClient()
	models, err := registrations(planModels)
	if err != nil {
		return err
	}
	fl, err := launchCluster(l.e, ctl, models)
	if err != nil {
		return err
	}
	defer fl.stop()
	router := fl.front
	owners := make([]string, len(planModels))
	for i, m := range planModels {
		routed, direct, owner, err := ownerAnswer(ctl, router.url, m)
		if err != nil {
			return err
		}
		if string(routed) != string(direct) {
			return fmt.Errorf("%s: router answer differs from the owning backend's", m)
		}
		owners[i] = owner
	}
	c := newClient()
	var x exchange
	seq := readSeq(l.e.seed, tracedPairs, len(planModels))
	t := l.t
	for i, m := range seq {
		done := t.request(i)
		err := t.timed("wire.direct", func() error {
			return do(c, http.MethodPost, recommendURL(owners[m], planModels[m]), nil, &x)
		})
		l.tally.record(err, x.status, nil)
		err = t.timed("cluster.routed", func() error {
			return do(c, http.MethodPost, recommendURL(router.url, planModels[m]), nil, &x)
		})
		l.tally.record(err, x.status, nil)
		done()
	}
	l.put("cluster.hop_us", t.selfUs("cluster.routed", "wire.direct"), "us")

	cpu0, err := router.cpu()
	if err != nil {
		return err
	}
	n := int(readRate * tracedBurst)
	burst := readSeq(l.e.seed^saltWarm, n, len(planModels))
	clients := []*http.Client{newClient(), newClient()}
	xs := make([]exchange, len(clients))
	tallies := make([]tally, len(clients))
	res := openLoop(time.Now().Add(time.Millisecond), readRate, n, len(clients), func(w, i int) bool {
		err := do(clients[w], http.MethodPost, recommendURL(router.url, planModels[burst[i]]), nil, &xs[w])
		return tallies[w].record(err, xs[w].status, nil)
	})
	cpu1, err := router.cpu()
	if err != nil {
		return err
	}
	for i := range tallies {
		l.tally.merge(&tallies[i])
	}
	late := make([]float64, n)
	for i, d := range res.late {
		late[i] = ms(d)
	}
	l.put("cluster.hop_cpu_us_per_op", float64(cpu1-cpu0)/float64(time.Microsecond)/float64(n), "us")
	l.put("driver.late_p95_ms", quantile(late, 0.95), "ms")
	return nil
}
