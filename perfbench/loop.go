package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// tally counts a workload's operations and the three ways one can
// fail. Each failed operation counts exactly once, under the first
// failure it meets: transport, then status, then output check.
type tally struct {
	attempted int
	transport int // no response: connection refused, reset, timeout
	status    int // a response outside 2xx
	wrong     int // a 2xx response that failed its output check
	firstErr  string
}

func (t *tally) failed() int { return t.transport + t.status + t.wrong }

// record folds one operation into the tally and reports whether it
// succeeded. check runs only on a 2xx response.
func (t *tally) record(err error, status int, check func() error) bool {
	t.attempted++
	var fail error
	switch {
	case err != nil:
		t.transport++
		fail = err
	case status < 200 || status > 299:
		t.status++
		fail = fmt.Errorf("status %d", status)
	case check != nil:
		if fail = check(); fail != nil {
			t.wrong++
		}
	}
	if fail != nil && t.firstErr == "" {
		t.firstErr = fail.Error()
	}
	return fail == nil
}

// statusError is a response outside 2xx, for operations made of
// several exchanges.
type statusError struct{ code int }

func (e statusError) Error() string { return fmt.Sprintf("status %d", e.code) }

// wrongAnswer is a 2xx response that failed its output check.
type wrongAnswer struct{ error }

// recordErr folds an operation made of several exchanges into the
// tally, classifying its error as recordErr's single-exchange
// counterpart record would.
func (t *tally) recordErr(err error) bool {
	var se statusError
	var wa wrongAnswer
	switch {
	case errors.As(err, &se):
		return t.record(nil, se.code, nil)
	case errors.As(err, &wa):
		return t.record(nil, http.StatusOK, func() error { return wa.error })
	default:
		return t.record(err, http.StatusOK, nil)
	}
}

// merge adds o's counts to t.
func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.transport += o.transport
	t.status += o.status
	t.wrong += o.wrong
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

// quantile returns the nearest-rank q-quantile of xs: the smallest
// sample with at least a q share of the samples at or below it. xs is
// sorted in place. It returns NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// exchange is one HTTP request/response: the status, the body read into
// a reused buffer, and the response headers.
type exchange struct {
	status int
	body   bytes.Buffer
	header http.Header
}

// do sends one request and reads the whole response body into x.
func do(c *http.Client, method, url string, body []byte, x *exchange) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	x.body.Reset()
	if _, err := x.body.ReadFrom(resp.Body); err != nil {
		return err
	}
	x.status, x.header = resp.StatusCode, resp.Header
	return nil
}

// newClient returns a client that keeps at most one connection to each
// host, so the number of clients a loop uses is its connection count.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			Proxy:               nil,
		},
	}
}

// closedLoop runs op back to back on one client until d has elapsed
// and returns when each operation ended, from the start of the loop;
// the last entry is the elapsed time. op receives the operation index.
func closedLoop(d time.Duration, op func(i int)) []time.Duration {
	var ends []time.Duration
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		op(i)
		ends = append(ends, time.Since(start))
	}
	return ends
}

// sliceFigures cuts a closed loop's run, in operation order, into k
// slices of equal size and returns each slice's p50 and p95 latency
// (from lat, ms, one per completed operation) and its throughput (from
// ends, as closedLoop returns them). With fewer than k operations it
// returns no slices.
func sliceFigures(lat []float64, ends []time.Duration, k int) (p50s, p95s, rates []float64) {
	if len(lat) < k || len(ends) < k {
		return nil, nil, nil
	}
	for j := range k {
		s := slices.Clone(lat[j*len(lat)/k : (j+1)*len(lat)/k])
		p50s = append(p50s, quantile(s, 0.50))
		p95s = append(p95s, quantile(s, 0.95))
	}
	for j := range k {
		lo, hi := j*len(ends)/k, (j+1)*len(ends)/k
		from := time.Duration(0)
		if lo > 0 {
			from = ends[lo-1]
		}
		rates = append(rates, float64(hi-lo)/(ends[hi-1]-from).Seconds())
	}
	return p50s, p95s, rates
}

// sleepUntil blocks the calling thread in nanosleep until t. The Go
// timer behind time.Sleep overshoots sub-millisecond waits by most of a
// millisecond on Linux when the process is otherwise idle, which at a
// 1 ms send interval would double the latency it is meant to measure;
// nanosleep wakes within the kernel's timer slack (~50 µs).
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop re-arms
	}
}

// openResult is what an open loop measured: per request, the time from
// when it was due to when its response was read (lat) and to when it
// was sent (late); elapsed runs from the first due time to the last
// completion.
type openResult struct {
	lat, late []time.Duration
	ok        []bool
	elapsed   time.Duration
}

// openLoop sends n requests, request i due at start + i/rate, from
// conns workers that each own one connection; start should lie a
// little in the future. A worker that finishes
// early sleeps until its next request is due; one that falls behind
// sends at once. Latency is measured from the due time, so a stall is
// charged to every request queued behind it rather than hidden by a
// generator that waits for it.
func openLoop(start time.Time, rate float64, n, conns int, send func(worker, i int) bool) openResult {
	res := openResult{
		lat:  make([]time.Duration, n),
		late: make([]time.Duration, n),
		ok:   make([]bool, n),
	}
	period := float64(time.Second) / rate
	var next atomic.Int64
	var last atomic.Int64
	var wg sync.WaitGroup
	for w := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) * period))
				sleepUntil(due)
				res.late[i] = time.Since(due)
				res.ok[i] = send(w, i)
				done := time.Now()
				res.lat[i] = done.Sub(due)
				for {
					l := last.Load()
					if int64(done.Sub(start)) <= l || last.CompareAndSwap(l, int64(done.Sub(start))) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Duration(last.Load())
	return res
}
