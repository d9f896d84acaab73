package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"gridstrat"
	"gridstrat/internal/trace"
)

// proc is one launched gridstratd or gridstratrouter process with its
// API and pprof debug listeners on loopback.
type proc struct {
	name  string
	cmd   *exec.Cmd
	url   string // API base URL
	debug string // pprof base URL
	log   *bytes.Buffer
	done  chan struct{}
}

// children tracks every live process so a signal can stop them all.
var children = struct {
	sync.Mutex
	m map[*proc]struct{}
}{m: map[*proc]struct{}{}}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// launch starts bin with API and debug listeners on fresh loopback
// ports plus args, and returns once the process is running (not yet
// ready; see waitReady). With cpu >= 0 the process is pinned to that
// CPU (modulo the CPU count).
func launch(bin, name string, cpu int, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	dbg, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-pprof", dbg, "-quiet"}, args...)...)
	p := &proc{name: name, cmd: cmd, url: "http://" + addr, debug: "http://" + dbg,
		log: new(bytes.Buffer), done: make(chan struct{})}
	cmd.Stdout, cmd.Stderr = p.log, p.log
	// The process dies with the benchmark even if the benchmark is
	// killed before it can stop it. The signal fires when the thread
	// that forked the process exits, so that thread is locked to a
	// goroutine that lives until the process has exited.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	started := make(chan error, 1)
	go func() {
		runtime.LockOSThread() // never unlocked: the thread ends with the goroutine
		if cpu >= 0 {
			// A forked process inherits the forking thread's CPU mask.
			if err := pinThread(cpu % runtime.NumCPU()); err != nil {
				started <- fmt.Errorf("pinning %s: %w", name, err)
				return
			}
		}
		if err := cmd.Start(); err != nil {
			started <- fmt.Errorf("starting %s: %w", name, err)
			return
		}
		started <- nil
		_ = cmd.Wait()
		close(p.done)
	}()
	if err := <-started; err != nil {
		return nil, err
	}
	children.Lock()
	children.m[p] = struct{}{}
	children.Unlock()
	return p, nil
}

// pinThread restricts the calling OS thread to one CPU.
func pinThread(cpu int) error {
	var mask [16]uint64 // a cpu_set_t of 1024 CPUs
	mask[cpu/64] = 1 << (cpu % 64)
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return errno
	}
	return nil
}

// stop kills the process and waits until it has exited.
func (p *proc) stop() {
	_ = p.cmd.Process.Kill()
	<-p.done
	children.Lock()
	delete(children.m, p)
	children.Unlock()
}

// stopAll stops every live process.
func stopAll() {
	children.Lock()
	ps := make([]*proc, 0, len(children.m))
	for p := range children.m {
		ps = append(ps, p)
	}
	children.Unlock()
	for _, p := range ps {
		p.stop()
	}
}

// waitReady polls GET /healthz every 2 ms until the body reports
// status ok (a router reports it once every backend is healthy and
// ready) or the process exits.
func (p *proc) waitReady(c *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var x exchange
	for {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during start-up: %s", p.name, p.log.String())
		default:
		}
		if err := do(c, http.MethodGet, p.url+"/healthz", nil, &x); err == nil && x.status == http.StatusOK {
			var h struct{ Status string }
			if json.Unmarshal(x.body.Bytes(), &h) == nil && h.Status == "ok" {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v", p.name, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// clockTicks is the unit of utime/stime in /proc/<pid>/stat: USER_HZ,
// fixed at 100 on Linux.
const clockTicks = 100

// cpu returns the user+system CPU time the process has used, from
// /proc/<pid>/stat (all threads).
func (p *proc) cpu() (time.Duration, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing /proc stat: %w", err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// heapAlloc forces a GC in the process through its pprof listener and
// returns the live heap (HeapAlloc) it reports afterwards.
func (p *proc) heapAlloc(c *http.Client) (uint64, error) {
	var x exchange
	if err := do(c, http.MethodGet, p.debug+"/debug/pprof/heap?gc=1&debug=1", nil, &x); err != nil {
		return 0, err
	}
	if x.status != http.StatusOK {
		return 0, fmt.Errorf("%s heap profile: status %d", p.name, x.status)
	}
	const key = "# HeapAlloc = "
	for _, line := range strings.Split(x.body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, key); ok {
			return strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, fmt.Errorf("%s heap profile has no HeapAlloc", p.name)
}

// fleet is the set of processes one workload runs against.
type fleet struct {
	procs []*proc
	front *proc // the process clients talk to
}

func (f *fleet) stop() {
	for _, p := range f.procs {
		p.stop()
	}
}

// cpu sums the CPU time of every process of the fleet.
func (f *fleet) cpu() (time.Duration, error) {
	var sum time.Duration
	for _, p := range f.procs {
		d, err := p.cpu()
		if err != nil {
			return 0, err
		}
		sum += d
	}
	return sum, nil
}

// heapMiB sums the post-GC live heap of every process, in MiB.
func (f *fleet) heapMiB(c *http.Client) (float64, error) {
	var sum uint64
	for _, p := range f.procs {
		h, err := p.heapAlloc(c)
		if err != nil {
			return 0, err
		}
		sum += h
	}
	return float64(sum) / (1 << 20), nil
}

// registration is the body of a POST /v1/models registering one paper
// dataset's model.
func registration(dataset string) ([]byte, error) {
	req := map[string]string{"id": modelID(dataset), "dataset": dataset}
	if dataset == trace.AggregateName {
		// The pooled set is not a daemon-side dataset name: upload its
		// trace inline, as a user holding the merged probes would.
		set, err := trace.SynthesizeAll()
		if err != nil {
			return nil, err
		}
		agg, err := set.Get(dataset)
		if err != nil {
			return nil, err
		}
		var csv bytes.Buffer
		if err := gridstrat.WriteTraceCSV(&csv, agg); err != nil {
			return nil, err
		}
		req = map[string]string{"id": modelID(dataset), "format": "csv", "trace": csv.String()}
	}
	return json.Marshal(req)
}

// registerAll registers one model per registration body through base.
func registerAll(c *http.Client, base string, bodies [][]byte) error {
	var x exchange
	for _, body := range bodies {
		if err := do(c, http.MethodPost, base+"/v1/models", body, &x); err != nil {
			return fmt.Errorf("registering a model: %w", err)
		}
		if x.status != http.StatusCreated {
			return fmt.Errorf("registering a model: status %d: %s", x.status, x.body.String())
		}
	}
	return nil
}

// registryTotals is the part of a daemon's /v1/stats totals the
// path guards read.
type registryTotals struct {
	Rebuilds      uint64 `json:"rebuilds"`
	WALAppends    uint64 `json:"wal_appends"`
	ResidentBytes int64  `json:"resident_bytes"`
}

// totals reads GET /v1/stats totals from a daemon.
func totals(c *http.Client, base string) (registryTotals, error) {
	var x exchange
	if err := do(c, http.MethodGet, base+"/v1/stats", nil, &x); err != nil {
		return registryTotals{}, err
	}
	var s struct {
		Totals registryTotals `json:"totals"`
	}
	if x.status != http.StatusOK {
		return registryTotals{}, fmt.Errorf("stats: status %d", x.status)
	}
	err := json.Unmarshal(x.body.Bytes(), &s)
	return s.Totals, err
}

// windowProbes reads a model's window probe count from
// GET /v1/models/{id}.
func windowProbes(c *http.Client, base, id string) (int, error) {
	var x exchange
	if err := do(c, http.MethodGet, base+"/v1/models/"+id, nil, &x); err != nil {
		return 0, err
	}
	if x.status != http.StatusOK {
		return 0, fmt.Errorf("model %s: status %d", id, x.status)
	}
	var info struct {
		Stats struct {
			Probes int `json:"probes"`
		} `json:"stats"`
	}
	err := json.Unmarshal(x.body.Bytes(), &info)
	return info.Stats.Probes, err
}
