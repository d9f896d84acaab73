package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"time"

	"gridstrat"
	"gridstrat/internal/server"
)

// env is what every workload runs with.
type env struct {
	bin     string // directory holding the gridstratd and gridstratrouter binaries
	work    string // scratch directory inside the checkout
	seed    uint64
	seconds time.Duration
}

// outcome is what one workload run measured, before it is reduced to
// metrics.
type outcome struct {
	setup   []float64 // seconds, one per set-up
	lat     []float64 // ms, the workload's one latency class
	elapsed time.Duration
	cpu     time.Duration
	heapMiB float64
	tally   tally
	guards  []string // failed path or stationarity guards
	notes   []string // report lines
	// windowed, when set, replaces the whole-window figures with ones
	// taken over slices of the window.
	windowed *windowed
}

// windowed holds figures taken over slices of a window; a zero field
// leaves the whole-window figure in place.
type windowed struct{ p50, p95, rps, cpuPerOp float64 }

// completed is the number of operations that succeeded.
func (o *outcome) completed() int { return o.tally.attempted - o.tally.failed() }

// setupRuns is how many times a run sets its fleet up; setup_s is the
// median, and only the last fleet serves traffic.
const setupRuns = 5

// setUp launches a fleet setupRuns times, timing each launch until
// every model is registered and the front process is healthy, and
// returns the last fleet with the set-up times.
func setUp(launchFleet func(i int) (*fleet, error)) (*fleet, []float64, error) {
	var times []float64
	for i := range setupRuns {
		start := time.Now()
		fl, err := launchFleet(i)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupRuns-1 {
			fl.stop()
			continue
		}
		return fl, times, nil
	}
	panic("unreachable")
}

// registrations encodes the registration body of every dataset.
func registrations(datasets []string) ([][]byte, error) {
	out := make([][]byte, len(datasets))
	for i, d := range datasets {
		var err error
		if out[i], err = registration(d); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// launchDaemon starts one gridstratd with extra flags and registers
// models through its API.
func launchDaemon(e *env, c *http.Client, models [][]byte, flags ...string) (*fleet, error) {
	p, err := launch(filepath.Join(e.bin, "gridstratd"), "gridstratd", -1, flags...)
	if err != nil {
		return nil, err
	}
	fl := &fleet{procs: []*proc{p}, front: p}
	if err := p.waitReady(c, 30*time.Second); err != nil {
		fl.stop()
		return nil, err
	}
	if err := registerAll(c, p.url, models); err != nil {
		fl.stop()
		return nil, err
	}
	return fl, nil
}

// recommendURL is the recommend endpoint of a model behind base.
func recommendURL(base, id string) string { return base + "/v1/models/" + id + "/recommend" }

// recommendResponse is the part of a recommend answer the checks read.
type recommendResponse struct {
	Model          string                    `json:"model"`
	Version        int64                     `json:"version"`
	Recommendation server.RecommendationJSON `json:"recommendation"`
	Degraded       bool                      `json:"degraded"`
}

// checkPlanAnswer checks that an option-bearing answer is for the
// requested model and honors the request's constraints.
func checkPlanAnswer(req planReq, body []byte) error {
	var r recommendResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decoding answer: %w", err)
	}
	rec := r.Recommendation
	switch {
	case r.Model != req.Model:
		return fmt.Errorf("answer for model %q, asked %q", r.Model, req.Model)
	case r.Degraded:
		return fmt.Errorf("degraded answer for %s", req.Model)
	case rec.Strategy != "single" && rec.Strategy != "multiple" && rec.Strategy != "delayed":
		return fmt.Errorf("unknown strategy %q", rec.Strategy)
	case !(rec.Eval.EJS > 0) || math.IsInf(rec.Eval.EJS, 0):
		return fmt.Errorf("EJ %v not finite and positive", rec.Eval.EJS)
	case rec.Eval.Parallel > req.Opts.MaxParallel*(1+1e-9):
		return fmt.Errorf("parallel %v exceeds max_parallel %v", rec.Eval.Parallel, req.Opts.MaxParallel)
	case rec.DeltaCost > req.Opts.Budget*(1+1e-9):
		return fmt.Errorf("delta_cost %v exceeds budget %v", rec.DeltaCost, req.Opts.Budget)
	}
	return nil
}

// recJSON renders a library recommendation in the wire form the
// server answers with.
func recJSON(rec gridstrat.Recommendation) server.RecommendationJSON {
	s := rec.AsStrategy()
	p := s.Params()
	return server.RecommendationJSON{
		StrategySpec: server.StrategySpec{Strategy: string(s.Name()), B: p.B, TInfS: p.TInf, T0S: p.T0},
		Eval:         server.EvaluationJSON{EJS: rec.Eval.EJ, SigmaS: rec.Eval.Sigma, Parallel: rec.Eval.Parallel},
		DeltaCost:    rec.Delta,
		Summary:      rec.String(),
	}
}

// jsonEqual reports whether a and b decode to the same JSON value.
func jsonEqual(a, b []byte) (bool, error) {
	var va, vb any
	if err := json.Unmarshal(a, &va); err != nil {
		return false, err
	}
	if err := json.Unmarshal(b, &vb); err != nil {
		return false, err
	}
	return reflect.DeepEqual(va, vb), nil
}

// paperPlanners builds one in-process Planner per dataset over the
// model the daemon builds from the same synthesized trace. Later
// Planners built over p.Model() share its integral memo, as the
// daemon's per-request Planners share their snapshot's.
func paperPlanners(datasets []string) (map[string]*gridstrat.Planner, error) {
	out := make(map[string]*gridstrat.Planner, len(datasets))
	for _, d := range datasets {
		tr, err := gridstrat.SynthesizeDataset(d)
		if err != nil {
			return nil, err
		}
		m, err := gridstrat.ModelFromTrace(tr)
		if err != nil {
			return nil, err
		}
		if out[modelID(d)], err = gridstrat.NewPlanner(m); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// inProcessAnswer re-derives an option-bearing answer with the library
// and reports whether the daemon's recommendation is JSON-equal to it.
func inProcessAnswer(planners map[string]*gridstrat.Planner, req planReq, body []byte) error {
	p, err := gridstrat.NewPlanner(planners[req.Model].Model(),
		gridstrat.WithMaxParallel(req.Opts.MaxParallel),
		gridstrat.WithDeadline(req.Opts.DeadlineS),
		gridstrat.WithBudget(req.Opts.Budget))
	if err != nil {
		return err
	}
	rec, err := p.Recommend()
	if err != nil {
		return err
	}
	want, err := json.Marshal(recJSON(rec))
	if err != nil {
		return err
	}
	var got struct {
		Recommendation json.RawMessage `json:"recommendation"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	eq, err := jsonEqual(got.Recommendation, want)
	if err != nil {
		return err
	}
	if !eq {
		return fmt.Errorf("%s %s: daemon answered %s, library %s", req.Model, req.Body, got.Recommendation, want)
	}
	return nil
}

// planSlices is how many equal slices a plan-options run is cut into:
// latency quantiles and throughput are taken per slice and the median
// over the slices is reported. Outside load on a shared machine slows
// stretches of a run for seconds at a time, and a whole-window p95
// follows any stretch that covers more than a few percent of the run;
// the median passes over a stretch confined to one slice, while a
// change to the program moves every slice. Three slices of a 600–830
// request run hold 200–280 requests each, so each slice's p95 still
// has about ten samples or more beyond it. ingest-fresh holds ~200
// cycles a run, one slice's worth, and reports whole-window figures.
const planSlices = 3

// sliced takes a closed loop's latency quantiles and throughput over k
// slices, notes them beside the whole-window figures, and returns their
// medians.
func (o *outcome) sliced(ends []time.Duration, k int) *windowed {
	p50s, p95s, rates := sliceFigures(o.lat, ends, k)
	o.notes = append(o.notes,
		fmt.Sprintf("per slice of %d: p50 %.3f ms, p95 %.3f ms, %.3f ops/s", len(o.lat)/k, p50s, p95s, rates),
		fmt.Sprintf("whole window: p50 %.3f ms, p95 %.3f ms, %.3f ops/s", quantile(o.lat, 0.5), quantile(o.lat, 0.95), float64(o.completed())/o.elapsed.Seconds()))
	return &windowed{p50: median(p50s), p95: median(p95s), rps: median(rates)}
}

// checkEvery is the share (1 in checkEvery) of plan-options answers
// re-derived in-process after the measured window.
const checkEvery = 24

// runPlanOptions drives option-bearing recommends from one closed-loop
// client against one gridstratd holding four paper models.
func runPlanOptions(e *env) (*outcome, error) {
	ctl := newClient()
	models, err := registrations(planModels)
	if err != nil {
		return nil, err
	}
	fl, setup, err := setUp(func(int) (*fleet, error) { return launchDaemon(e, ctl, models) })
	if err != nil {
		return nil, err
	}
	defer fl.stop()
	o := &outcome{setup: setup}
	c := newClient()
	base := fl.front.url
	var x exchange

	// Warm-up: one request per model and collection size, so every
	// snapshot's integral memo holds the grids the measured requests
	// touch.
	warm := newPlanGen(e.seed, saltWarm)
	for _, m := range planModels {
		for b := 2; b <= 5; b++ {
			req := warm.next()
			req.Model, req.Opts.MaxParallel = m, float64(b)+0.5
			req.Body = planBody(req.Opts)
			if err := do(c, http.MethodPost, recommendURL(base, m), req.Body, &x); err != nil || x.status != http.StatusOK {
				return nil, fmt.Errorf("warm-up recommend %s: %v (status %d)", m, err, x.status)
			}
		}
	}

	gen := newPlanGen(e.seed, saltPlan)
	pick := newRand(e.seed, saltCheck)
	type sample struct {
		req  planReq
		body []byte
	}
	var samples []sample
	before, err := totals(ctl, base)
	if err != nil {
		return nil, err
	}
	cpu0, err := fl.cpu()
	if err != nil {
		return nil, err
	}
	ends := closedLoop(e.seconds, func(int) {
		req := gen.next()
		start := time.Now()
		err := do(c, http.MethodPost, recommendURL(base, req.Model), req.Body, &x)
		d := time.Since(start)
		if o.tally.record(err, x.status, func() error { return checkPlanAnswer(req, x.body.Bytes()) }) {
			o.lat = append(o.lat, ms(d))
			if pick.IntN(checkEvery) == 0 {
				samples = append(samples, sample{req, bytes.Clone(x.body.Bytes())})
			}
		}
	})
	o.elapsed = ends[len(ends)-1]
	o.windowed = o.sliced(ends, planSlices)
	cpu1, err := fl.cpu()
	if err != nil {
		return nil, err
	}
	o.cpu = cpu1 - cpu0
	if o.heapMiB, err = fl.heapMiB(ctl); err != nil {
		return nil, err
	}
	after, err := totals(ctl, base)
	if err != nil {
		return nil, err
	}
	if d := after.WALAppends - before.WALAppends; d != 0 {
		o.guards = append(o.guards, fmt.Sprintf("plan-options made %d WAL appends, want 0", d))
	}
	if d := after.Rebuilds - before.Rebuilds; d != 0 {
		o.guards = append(o.guards, fmt.Sprintf("plan-options made %d rebuilds, want 0", d))
	}

	// Output check: the sampled answers against the library.
	planners, err := paperPlanners(planModels)
	if err != nil {
		return nil, err
	}
	for _, s := range samples {
		if err := inProcessAnswer(planners, s.req, s.body); err != nil {
			o.tally.wrong++
			if o.tally.firstErr == "" {
				o.tally.firstErr = err.Error()
			}
		}
	}
	o.notes = append(o.notes, fmt.Sprintf("plan-options: %d answers re-derived in-process", len(samples)))
	return o, nil
}

// Serve-cached settings: the offered rate sits well below the measured
// router capacity on two vCPUs, and two connections carry it.
const (
	readRate  = 2000.0
	readConns = 2
	readSlice = 100 * time.Millisecond
)

// launchCluster starts two gridstratd backends and a gridstratrouter in
// front of them, and registers every paper dataset through the router.
// The router runs on CPU 0 and both backends on CPU 1. Left to the
// scheduler, the three processes land differently from run to run, and
// the CPU a cached read costs moved between ~260 and ~380 µs with the
// placement; pinned, it holds within a few percent.
func launchCluster(e *env, c *http.Client, models [][]byte) (*fleet, error) {
	fl := &fleet{}
	var backends []string
	for i := range 2 {
		p, err := launch(filepath.Join(e.bin, "gridstratd"), "gridstratd-"+strconv.Itoa(i), 1)
		if err != nil {
			fl.stop()
			return nil, err
		}
		fl.procs = append(fl.procs, p)
		backends = append(backends, p.url)
	}
	for _, p := range fl.procs {
		if err := p.waitReady(c, 30*time.Second); err != nil {
			fl.stop()
			return nil, err
		}
	}
	r, err := launch(filepath.Join(e.bin, "gridstratrouter"), "gridstratrouter", 0,
		"-backends", backends[0]+","+backends[1])
	if err != nil {
		fl.stop()
		return nil, err
	}
	fl.procs = append(fl.procs, r)
	fl.front = r
	if err := r.waitReady(c, 30*time.Second); err != nil {
		fl.stop()
		return nil, err
	}
	if err := registerAll(c, r.url, models); err != nil {
		fl.stop()
		return nil, err
	}
	return fl, nil
}

// ownerAnswer fetches a model's option-free answer through the router
// and directly from the backend the router forwarded it to, and
// returns both bodies and that backend's URL.
func ownerAnswer(c *http.Client, router string, id string) (routed, direct []byte, owner string, err error) {
	var x exchange
	if err := do(c, http.MethodPost, recommendURL(router, id), nil, &x); err != nil {
		return nil, nil, "", err
	}
	if x.status != http.StatusOK {
		return nil, nil, "", fmt.Errorf("router recommend %s: status %d", id, x.status)
	}
	routed = bytes.Clone(x.body.Bytes())
	owner = x.header.Get("X-Gridstrat-Backend")
	if owner == "" {
		return nil, nil, "", fmt.Errorf("router answer for %s names no backend", id)
	}
	if err := do(c, http.MethodPost, recommendURL(owner, id), nil, &x); err != nil {
		return nil, nil, "", err
	}
	if x.status != http.StatusOK {
		return nil, nil, "", fmt.Errorf("backend recommend %s: status %d", id, x.status)
	}
	return routed, bytes.Clone(x.body.Bytes()), owner, nil
}

// runServeCached drives option-free recommends, open loop at readRate
// on readConns connections, through a router in front of two daemons
// holding all 13 paper models.
func runServeCached(e *env) (*outcome, error) {
	ctl := newClient()
	datasets := allDatasets()
	models, err := registrations(datasets)
	if err != nil {
		return nil, err
	}
	fl, setup, err := setUp(func(int) (*fleet, error) { return launchCluster(e, ctl, models) })
	if err != nil {
		return nil, err
	}
	defer fl.stop()
	o := &outcome{setup: setup}
	router := fl.front.url
	ids := make([]string, len(datasets))
	urls := make([]string, len(datasets))
	want := make([][]byte, len(datasets))
	for i, d := range datasets {
		ids[i] = modelID(d)
		urls[i] = recommendURL(router, ids[i])
	}
	// Warm-up: the first hit on each model computes its cached answer.
	// The router's answer must be byte-equal to the owner's own.
	for i, id := range ids {
		routed, direct, _, err := ownerAnswer(ctl, router, id)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(routed, direct) {
			return nil, fmt.Errorf("%s: router answer differs from the owning backend's", id)
		}
		want[i] = routed
	}
	clients := make([]*http.Client, readConns)
	xs := make([]exchange, readConns)
	for i := range clients {
		clients[i] = newClient()
	}
	tallies := make([]tally, readConns)
	send := func(seq []int) func(w, i int) bool {
		return func(w, i int) bool {
			m := seq[i]
			err := do(clients[w], http.MethodPost, urls[m], nil, &xs[w])
			return tallies[w].record(err, xs[w].status, func() error {
				if !bytes.Equal(xs[w].body.Bytes(), want[m]) {
					return fmt.Errorf("%s: answer differs from the cached one", ids[m])
				}
				return nil
			})
		}
	}
	// One second of unmeasured traffic settles connections and the
	// router's rolling latency estimates.
	openLoop(time.Now().Add(time.Millisecond), readRate, int(readRate), readConns,
		send(readSeq(e.seed^saltWarm, int(readRate), len(ids))))
	clear(tallies)

	stats0, err := clusterTotals(ctl, fl)
	if err != nil {
		return nil, err
	}
	// Outside load on a shared machine stalls the whole pipeline for
	// tens of milliseconds at a time, often enough to swing a
	// whole-run tail by an order of magnitude and, in bad stretches, to
	// touch most seconds of a run. So the window is cut into slices and
	// each figure is the lower quartile over them, the value of the
	// quieter stretches: latency quantiles over readSlice slices (200
	// reads each, so p95 has ten samples beyond it), CPU per read over
	// one-second slices (CPU is counted in 10 ms ticks, sampled at every
	// boundary). A change to the router or handler moves every slice,
	// so it moves the quartile too.
	n := int(readRate * e.seconds.Seconds())
	seconds := int(e.seconds / time.Second)
	start := time.Now().Add(10 * time.Millisecond)
	cpuAt := make([]time.Duration, seconds+1)
	cpuErr := make(chan error, 1)
	go func() {
		var err error
		for k := range cpuAt {
			time.Sleep(time.Until(start.Add(time.Duration(k) * time.Second)))
			if cpuAt[k], err = fl.cpu(); err != nil {
				break
			}
		}
		cpuErr <- err
	}()
	res := openLoop(start, readRate, n, readConns, send(readSeq(e.seed, n, len(ids))))
	if err := <-cpuErr; err != nil {
		return nil, err
	}
	o.cpu, o.elapsed = cpuAt[seconds]-cpuAt[0], res.elapsed
	if o.heapMiB, err = fl.heapMiB(ctl); err != nil {
		return nil, err
	}
	for i := range tallies {
		o.tally.merge(&tallies[i])
	}
	late := make([]float64, 0, n)
	for i := range n {
		late = append(late, ms(res.late[i]))
		if res.ok[i] {
			o.lat = append(o.lat, ms(res.lat[i]))
		}
	}
	var p50s, p95s, cpus []float64
	per := int(readRate * readSlice.Seconds())
	for lo := 0; lo+per <= n; lo += per {
		var lat []float64
		for i := lo; i < lo+per; i++ {
			if res.ok[i] {
				lat = append(lat, ms(res.lat[i]))
			}
		}
		p50s = append(p50s, quantile(lat, 0.5))
		p95s = append(p95s, quantile(lat, 0.95))
	}
	for k := range seconds {
		cpus = append(cpus, float64(cpuAt[k+1]-cpuAt[k])/float64(time.Microsecond)/readRate)
	}
	o.notes = append(o.notes, fmt.Sprintf("slice read p95 quartiles %.3f / %.3f / %.3f ms over %d slices; whole-window p95 %.3f ms",
		quantile(p95s, 0.25), quantile(p95s, 0.5), quantile(p95s, 0.75), len(p95s), quantile(o.lat, 0.95)))
	o.notes = append(o.notes, fmt.Sprintf("slice CPU per read quartiles %.0f / %.0f / %.0f us over %d seconds",
		quantile(cpus, 0.25), quantile(cpus, 0.5), quantile(cpus, 0.75), len(cpus)))
	o.windowed = &windowed{p50: quantile(p50s, 0.25), p95: quantile(p95s, 0.25), cpuPerOp: quantile(cpus, 0.25)}
	stats1, err := clusterTotals(ctl, fl)
	if err != nil {
		return nil, err
	}
	if d := stats1.Rebuilds - stats0.Rebuilds; d != 0 {
		o.guards = append(o.guards, fmt.Sprintf("serve-cached made %d rebuilds, want 0", d))
	}
	// Output check after the window: router and owner still agree.
	for i, id := range ids {
		routed, direct, _, err := ownerAnswer(ctl, router, id)
		o.tally.record(err, http.StatusOK, func() error {
			if !bytes.Equal(routed, direct) || !bytes.Equal(routed, want[i]) {
				return fmt.Errorf("%s: router answer differs from the owning backend's", id)
			}
			return nil
		})
	}
	o.notes = append(o.notes, fmt.Sprintf("serve-cached: offered %.0f req/s on %d connections, generator late p50 %.3f ms, p95 %.3f ms",
		readRate, readConns, quantile(late, 0.5), quantile(late, 0.95)))
	return o, nil
}

// clusterTotals sums the registry totals of every backend of a
// cluster fleet (all processes but the router in front).
func clusterTotals(c *http.Client, fl *fleet) (registryTotals, error) {
	var sum registryTotals
	for _, p := range fl.procs {
		if p == fl.front {
			continue
		}
		t, err := totals(c, p.url)
		if err != nil {
			return sum, err
		}
		sum.Rebuilds += t.Rebuilds
		sum.WALAppends += t.WALAppends
	}
	return sum, nil
}

// freshTimeout bounds the wait for an answer carrying an acknowledged
// version; past it the cycle counts as a wrong answer.
const freshTimeout = 10 * time.Second

// observeResponse is the part of an observation ack the cycle reads.
type observeResponse struct {
	Version       int64 `json:"version"`
	Appended      int   `json:"appended"`
	WindowRecords int   `json:"window_records"`
	Stats         struct {
		Outliers int `json:"outliers"`
	} `json:"stats"`
}

// ingestFillBatches is how many batches per model the warm-up sends
// before the window opens, each followed by a ranking of the multiple
// strategy at b = 1..5 copies. Every batch brings a new outlier ratio ρ
// (see ingestGen), and each ranking builds the integral tables of its
// five (1-ρ, b) keys, so the daemon's 64 carried-over keys are full and
// every measured rebuild starts in the state a long-running daemon is
// in. Measured: a run whose window opened with the keys not yet full
// answered fresh recommends in ~145–185 ms for the first ~25 cycles per
// model and in ~205–310 ms from then on; after this warm-up (~0.2 s)
// the window opens at the later figures.
const ingestFillBatches = 16

// fillRanking is the body of the warm-up rankings.
var fillRanking = []byte(`{"strategies":[` +
	`{"strategy":"multiple","b":1,"t_inf_s":1000},{"strategy":"multiple","b":2,"t_inf_s":1000},` +
	`{"strategy":"multiple","b":3,"t_inf_s":1000},{"strategy":"multiple","b":4,"t_inf_s":1000},` +
	`{"strategy":"multiple","b":5,"t_inf_s":1000}]}`)

// runIngestFresh drives the refit loop from one closed-loop client: an
// observation batch, then option-free recommends until one carries the
// acknowledged version, round-robin over four models on a durable
// gridstratd.
func runIngestFresh(e *env) (*outcome, error) {
	ctl := newClient()
	models, err := registrations(planModels)
	if err != nil {
		return nil, err
	}
	fl, setup, err := setUp(func(i int) (*fleet, error) {
		dir := filepath.Join(e.work, fmt.Sprintf("wal-%d", i))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		return launchDaemon(e, ctl, models, "-wal-dir", dir)
	})
	if err != nil {
		return nil, err
	}
	defer fl.stop()
	o := &outcome{setup: setup}
	base := fl.front.url
	pools := make(map[string]*obsPool, len(planModels))
	for _, m := range planModels {
		if pools[m], err = newObsPool(m); err != nil {
			return nil, err
		}
	}
	c := newClient()
	var x exchange
	// observe posts a batch and checks its ack: every record appended
	// and, once the window is settled, the window's size and outlier
	// count as the generator expects them.
	observe := func(b obsBatch) (observeResponse, error) {
		var obs observeResponse
		if err := do(c, http.MethodPost, base+"/v1/models/"+b.Model+"/observations", b.Body, &x); err != nil {
			return obs, err
		}
		if x.status != http.StatusOK {
			return obs, statusError{x.status}
		}
		if err := json.Unmarshal(x.body.Bytes(), &obs); err != nil {
			return obs, wrongAnswer{err}
		}
		switch {
		case obs.Appended != len(b.Records):
			return obs, wrongAnswer{fmt.Errorf("observe %s: appended %d of %d", b.Model, obs.Appended, len(b.Records))}
		case b.WindowOutliers >= 0 && (obs.WindowRecords != windowRecords || obs.Stats.Outliers != b.WindowOutliers):
			return obs, wrongAnswer{fmt.Errorf("observe %s: window holds %d probes, %d outliers; want %d, %d",
				b.Model, obs.WindowRecords, obs.Stats.Outliers, windowRecords, b.WindowOutliers)}
		}
		return obs, nil
	}
	cycle := func(b obsBatch) (ack, fresh time.Duration, err error) {
		start := time.Now()
		obs, err := observe(b)
		if err != nil {
			return 0, 0, err
		}
		ack = time.Since(start)
		for {
			if err := do(c, http.MethodPost, recommendURL(base, b.Model), nil, &x); err != nil {
				return 0, 0, err
			}
			if x.status != http.StatusOK {
				return 0, 0, statusError{x.status}
			}
			var r recommendResponse
			if err := json.Unmarshal(x.body.Bytes(), &r); err != nil {
				return 0, 0, wrongAnswer{err}
			}
			switch {
			case r.Version == obs.Version:
				return ack, time.Since(start), nil
			case r.Version > obs.Version:
				return 0, 0, wrongAnswer{fmt.Errorf("%s answered version %d, acked %d", b.Model, r.Version, obs.Version)}
			case time.Since(start) > freshTimeout:
				return 0, 0, wrongAnswer{fmt.Errorf("%s still answers version %d after %v, acked %d", b.Model, r.Version, freshTimeout, obs.Version)}
			}
		}
	}

	// Settle every window at its steady size and content, fill the
	// carried-over table keys, then run one unmeasured cycle per model.
	gen := newIngestGen(e.seed, saltIngest, pools)
	for _, b := range gen.settle() {
		if _, err := observe(b); err != nil {
			return nil, fmt.Errorf("settling %s: %w", b.Model, err)
		}
	}
	for range ingestFillBatches * len(planModels) {
		b := gen.next()
		if _, err := observe(b); err != nil {
			return nil, fmt.Errorf("warm-up batch: %w", err)
		}
		if err := do(c, http.MethodPost, base+"/v1/models/"+b.Model+"/rank", fillRanking, &x); err != nil {
			return nil, fmt.Errorf("warm-up ranking: %w", err)
		}
		if x.status != http.StatusOK {
			return nil, fmt.Errorf("warm-up ranking %s: status %d", b.Model, x.status)
		}
	}
	for range planModels {
		if _, _, err := cycle(gen.next()); err != nil {
			return nil, fmt.Errorf("warm-up cycle: %w", err)
		}
	}

	probes0 := make(map[string]int, len(planModels))
	for _, m := range planModels {
		if probes0[m], err = windowProbes(ctl, base, m); err != nil {
			return nil, err
		}
	}
	before, err := totals(ctl, base)
	if err != nil {
		return nil, err
	}
	cpu0, err := fl.cpu()
	if err != nil {
		return nil, err
	}
	var acks []float64
	ends := closedLoop(e.seconds, func(int) {
		ack, fresh, err := cycle(gen.next())
		if o.tally.recordErr(err) {
			o.lat = append(o.lat, ms(fresh))
			acks = append(acks, ms(ack))
		}
	})
	o.elapsed = ends[len(ends)-1]
	cpu1, err := fl.cpu()
	if err != nil {
		return nil, err
	}
	o.cpu = cpu1 - cpu0
	if o.heapMiB, err = fl.heapMiB(ctl); err != nil {
		return nil, err
	}
	after, err := totals(ctl, base)
	if err != nil {
		return nil, err
	}
	cycles := uint64(o.tally.attempted)
	if d := after.Rebuilds - before.Rebuilds; d != cycles {
		o.guards = append(o.guards, fmt.Sprintf("ingest-fresh made %d rebuilds in %d cycles, want one each", d, cycles))
	}
	if d := after.WALAppends - before.WALAppends; d != cycles {
		o.guards = append(o.guards, fmt.Sprintf("ingest-fresh made %d WAL appends in %d cycles, want one each", d, cycles))
	}
	for _, m := range planModels {
		p, err := windowProbes(ctl, base, m)
		if err != nil {
			return nil, err
		}
		if d := p - probes0[m]; d > ingestBatch || d < -ingestBatch {
			o.guards = append(o.guards, fmt.Sprintf("%s window moved from %d to %d probes, want within one batch", m, probes0[m], p))
		}
	}
	o.notes = append(o.notes, fmt.Sprintf("ingest-fresh: observe_p50_ms %.4f ms, observe_p95_ms %.4f ms over %d acks",
		quantile(acks, 0.5), quantile(acks, 0.95), len(acks)))
	return o, nil
}
