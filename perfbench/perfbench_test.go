package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gridstrat/internal/trace"
)

func TestSameSeedSameRequestBodies(t *testing.T) {
	a, b, other := newPlanGen(7, saltPlan), newPlanGen(7, saltPlan), newPlanGen(8, saltPlan)
	differs := false
	for i := range 500 {
		ra, rb, ro := a.next(), b.next(), other.next()
		if ra.Model != rb.Model || !bytes.Equal(ra.Body, rb.Body) {
			t.Fatalf("plan request %d differs under one seed: %s vs %s", i, ra.Body, rb.Body)
		}
		differs = differs || !bytes.Equal(ra.Body, ro.Body)
	}
	if !differs {
		t.Error("seeds 7 and 8 drew the same plan requests")
	}

	pools := map[string]*obsPool{}
	for _, m := range planModels {
		p, err := newObsPool(m)
		if err != nil {
			t.Fatal(err)
		}
		pools[m] = p
	}
	ia, ib := newIngestGen(7, saltIngest, pools), newIngestGen(7, saltIngest, pools)
	sa, sb := ia.settle(), ib.settle()
	for i := range sa {
		if sa[i].Model != sb[i].Model || !bytes.Equal(sa[i].Body, sb[i].Body) {
			t.Fatalf("settling batch %d differs under one seed", i)
		}
	}
	for i := range 50 {
		ba, bb := ia.next(), ib.next()
		if ba.Model != bb.Model || !bytes.Equal(ba.Body, bb.Body) {
			t.Fatalf("observation batch %d differs under one seed", i)
		}
		if len(ba.Records) != ingestBatch {
			t.Fatalf("batch %d carries %d records, want %d", i, len(ba.Records), ingestBatch)
		}
	}

	if sa, sb := readSeq(7, 1000, 13), readSeq(7, 1000, 13); fmt.Sprint(sa) != fmt.Sprint(sb) {
		t.Error("read sequence differs under one seed")
	}
}

// TestOpenLoopChargesStall stalls one request of a stub server for
// 100 ms and checks that the requests due during the stall are charged
// for the time they waited behind it.
func TestOpenLoopChargesStall(t *testing.T) {
	const (
		rate    = 1000.0 // one request due every millisecond
		n       = 400
		stallAt = 100
		stall   = 100 * time.Millisecond
	)
	var seen atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1)-1 == stallAt {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	c := newClient()
	var x exchange
	res := openLoop(time.Now().Add(time.Millisecond), rate, n, 1, func(_, i int) bool {
		return do(c, http.MethodGet, srv.URL, nil, &x) == nil && x.status == http.StatusOK
	})
	for i, ok := range res.ok {
		if !ok {
			t.Fatalf("request %d failed", i)
		}
	}
	// The request due 1 ms after the stalled one waited ~99 ms.
	if got := res.lat[stallAt+1]; got < stall-10*time.Millisecond {
		t.Errorf("request after the stall: latency %v, want at least %v", got, stall-10*time.Millisecond)
	}
	// About 100 requests were due during the stall; each is charged
	// what was left of it when it came due.
	charged := 0
	for i := stallAt + 1; i < n; i++ {
		if res.lat[i] >= 20*time.Millisecond {
			charged++
		}
	}
	if charged < 60 {
		t.Errorf("%d requests behind the stall took over 20 ms, want at least 60", charged)
	}
	if res.late[stallAt+1] < stall-10*time.Millisecond {
		t.Errorf("sender lateness after the stall %v, want at least %v", res.late[stallAt+1], stall-10*time.Millisecond)
	}
	// Requests before the stall were on time.
	if got := res.lat[stallAt/2]; got > 50*time.Millisecond {
		t.Errorf("request before the stall took %v", got)
	}
}

// TestIngestRatioOnlyGrows checks the ingest generator's window
// bookkeeping against the records it emits: once settled, every batch
// evicts its model's oldest batch and the window's outlier count grows
// by exactly one per batch.
func TestIngestRatioOnlyGrows(t *testing.T) {
	pools := map[string]*obsPool{}
	for _, m := range planModels {
		p, err := newObsPool(m)
		if err != nil {
			t.Fatal(err)
		}
		pools[m] = p
	}
	g := newIngestGen(3, saltIngest, pools)
	window := map[string][]int{} // outliers per batch, oldest first
	count := func(b obsBatch) int {
		n := 0
		for _, r := range b.Records {
			if r.Status != trace.StatusCompleted {
				n++
			}
		}
		return n
	}
	last := map[string]int{}
	for _, b := range g.settle() {
		window[b.Model] = append(window[b.Model], count(b))
		if b.WindowOutliers >= 0 {
			last[b.Model] = b.WindowOutliers
		}
	}
	for _, m := range planModels {
		if len(window[m])*ingestBatch != windowRecords {
			t.Fatalf("%s settled with %d batches, want %d probes", m, len(window[m]), windowRecords)
		}
	}
	for i := range 400 {
		b := g.next()
		window[b.Model] = append(window[b.Model][1:], count(b))
		sum := 0
		for _, o := range window[b.Model] {
			sum += o
		}
		if b.WindowOutliers != sum || sum != last[b.Model]+1 {
			t.Fatalf("batch %d (%s): window outliers %d, records say %d, previous %d", i, b.Model, b.WindowOutliers, sum, last[b.Model])
		}
		last[b.Model] = sum
	}
}

func TestQuantileExact(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewPCG(1, 2)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, c := range []struct{ q, want float64 }{
		{0.01, 1}, {0.5, 50}, {0.95, 95}, {0.951, 96}, {0.99, 99}, {1, 100},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median(4,1,3,2) = %v, want 2 (nearest rank)", got)
	}
}

func TestSliceFigures(t *testing.T) {
	// 100 operations in five equal slices; operation i of slice k
	// takes (i+1)·m[k] ms.
	m := []float64{1, 2, 10, 3, 4}
	var lat []float64
	var ends []time.Duration
	var t0 time.Duration
	for _, mk := range m {
		for i := range 20 {
			d := float64(i+1) * mk
			lat = append(lat, d)
			t0 += time.Duration(d * float64(time.Millisecond))
			ends = append(ends, t0)
		}
	}
	p50s, p95s, rates := sliceFigures(lat, ends, 5)
	if len(p50s) != 5 || len(p95s) != 5 || len(rates) != 5 {
		t.Fatalf("got %d, %d, %d slices, want 5", len(p50s), len(p95s), len(rates))
	}
	// Slice k has p50 10·m[k] and p95 19·m[k] (nearest rank) and lasts
	// 210·m[k] ms. The median over the slices passes the stalled third
	// slice by: m = 3.
	for k := range 5 {
		if p50s[k] != 10*m[k] || p95s[k] != 19*m[k] || math.Abs(rates[k]-20/(0.21*m[k])) > 1e-9 {
			t.Errorf("slice %d: p50 %v, p95 %v, rate %v", k, p50s[k], p95s[k], rates[k])
		}
	}
	if got := median(p95s); got != 57 {
		t.Errorf("median p95 over slices = %v, want 57", got)
	}
	if p50s, _, rates := sliceFigures(lat[:4], ends[:4], 5); p50s != nil || rates != nil {
		t.Error("fewer operations than slices gave slices")
	}
}

func TestTallyCountsEachFailureOnce(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/unavailable":
			w.WriteHeader(http.StatusServiceUnavailable)
		case "/wrong":
			fmt.Fprint(w, "wrong")
		default:
			fmt.Fprint(w, "right")
		}
	}))
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	defer srv.Close()

	c := newClient()
	var tl tally
	checks := 0
	check := func(x *exchange) func() error {
		return func() error {
			checks++
			if x.body.String() != "right" {
				return errors.New("wrong answer")
			}
			return nil
		}
	}
	for _, url := range []string{deadURL + "/", srv.URL + "/unavailable", srv.URL + "/wrong", srv.URL + "/"} {
		var x exchange
		err := do(c, http.MethodGet, url, nil, &x)
		tl.record(err, x.status, check(&x))
	}
	if tl.attempted != 4 || tl.transport != 1 || tl.status != 1 || tl.wrong != 1 || tl.failed() != 3 {
		t.Errorf("tally %+v, want 4 attempted and one transport, status and wrong failure each", tl)
	}
	if checks != 2 {
		t.Errorf("output check ran %d times, want 2 (only on 2xx answers)", checks)
	}

	// Multi-exchange operations classify the same way.
	var multi tally
	multi.recordErr(errors.New("connection reset"))
	multi.recordErr(fmt.Errorf("observe: %w", statusError{http.StatusBadGateway}))
	multi.recordErr(wrongAnswer{errors.New("stale version")})
	multi.recordErr(nil)
	if multi.attempted != 4 || multi.transport != 1 || multi.status != 1 || multi.wrong != 1 {
		t.Errorf("multi-exchange tally %+v, want one of each failure", multi)
	}
}
