package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"

	"gridstrat"
	"gridstrat/internal/trace"
)

// Every input a workload sends is drawn from a PCG stream keyed by the
// run's seed and a per-purpose salt, so one seed always yields the same
// byte sequence and the streams of different purposes never overlap.
const (
	saltPlan   = 0x706c616e // measured option-bearing recommends
	saltWarm   = 0x7761726d // warm-up traffic, never measured
	saltRead   = 0x72656164 // measured cached reads
	saltIngest = 0x696e6773 // measured observation batches
	saltCheck  = 0x63686563 // which answers are re-derived in-process
)

func newRand(seed, salt uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, salt)) }

// planModels are the four paper weeks the planning and ingest
// workloads serve: the largest set (2006-IX) and three weekly sets of
// distinct shape.
var planModels = []string{"2006-IX", "2007-51", "2008-03", "2007-36"}

// allDatasets lists every paper dataset: the 12 weeks and the pooled
// 2007/08 set.
func allDatasets() []string {
	var out []string
	for _, spec := range gridstrat.PaperDatasets() {
		out = append(out, spec.Name)
	}
	return append(out, trace.AggregateName)
}

// modelID is the API identifier of a dataset's model: the dataset
// name with '/' replaced, so it fits in one URL path segment.
func modelID(dataset string) string { return strings.ReplaceAll(dataset, "/", "-") }

// planOptions is the wire form of a recommend request's constraints.
type planOptions struct {
	MaxParallel float64 `json:"max_parallel"`
	DeadlineS   float64 `json:"deadline_s"`
	Budget      float64 `json:"budget"`
}

// planReq is one option-bearing recommend of the plan-options workload.
type planReq struct {
	Model string
	Opts  planOptions
	Body  []byte
}

// planGen draws option-bearing recommends. The model and the whole
// number of copies are stratified: request i goes to model i mod 4 with
// floor(max_parallel) = 2 + (i/4) mod 4, so every run holds the same
// mix whatever its seed, and the seed cannot shift the latency tail.
// The options themselves are continuous, so no two requests repeat and
// no response cache can answer them: max_parallel adds a fraction to
// its 2–5 copies (the multiple optimizer runs at b = 2..5), deadline_s
// lies in [600, 3600) and the Δcost budget in [1.05, 3), which always
// admits the single baseline (Δcost 1), so no request is infeasible.
type planGen struct {
	r *rand.Rand
	i int
}

func newPlanGen(seed, salt uint64) *planGen { return &planGen{r: newRand(seed, salt)} }

func (g *planGen) next() planReq {
	m := planModels[g.i%len(planModels)]
	b := 2 + (g.i/len(planModels))%4
	g.i++
	o := planOptions{
		MaxParallel: float64(b) + g.r.Float64(),
		DeadlineS:   600 + 3000*g.r.Float64(),
		Budget:      1.05 + 1.95*g.r.Float64(),
	}
	return planReq{Model: m, Opts: o, Body: planBody(o)}
}

// planBody encodes a recommend request carrying o.
func planBody(o planOptions) []byte {
	body, err := json.Marshal(struct {
		Options planOptions `json:"options"`
	}{o})
	if err != nil {
		panic(err) // a struct of three finite floats always encodes
	}
	return body
}

// readSeq draws n model indexes uniformly over models.
func readSeq(seed uint64, n, models int) []int {
	r := newRand(seed, saltRead)
	out := make([]int, n)
	for i := range out {
		out[i] = r.IntN(models)
	}
	return out
}

// obsPool is one dataset's probe outcomes, resampled to build
// observation batches: the completed latencies, and the share of
// outliers the dataset holds.
type obsPool struct {
	completed []float64
	share     float64 // outliers / probes
	timeout   float64
}

func newObsPool(dataset string) (*obsPool, error) {
	tr, err := gridstrat.SynthesizeDataset(dataset)
	if err != nil {
		return nil, err
	}
	p := &obsPool{timeout: tr.Timeout}
	for _, rec := range tr.Records {
		if rec.Status == trace.StatusCompleted {
			p.completed = append(p.completed, rec.Latency)
		}
	}
	p.share = 1 - float64(len(p.completed))/float64(len(tr.Records))
	return p, nil
}

// obsBatch is one observation batch: its body and the records it
// carries, in the order the server stamps them. WindowOutliers is the
// outlier count the model's window holds once the batch is in, or -1
// when the batch does not settle it.
type obsBatch struct {
	Model          string
	Records        []trace.ProbeRecord
	Body           []byte
	WindowOutliers int
}

// obsSpacing is the submit spacing of ingested probes. The 7-day
// window then holds the newest windowRecords = 32 batches of probes:
// 604800/295.4 = 2047.4, so the window's edge falls 0.4 spacing away
// from a probe and rounding in the server's submit cursor cannot move
// a probe across it.
const obsSpacing = 295.4

// windowRecords is the probe count every model's window settles at.
const windowRecords = 2048

// ingestBatch is the probe count of one observation batch.
const ingestBatch = 64

// batch resamples n-outliers completed latencies with r, adds outliers
// outliers, and encodes the observations body.
func (p *obsPool) batch(r *rand.Rand, model string, n, outliers int) obsBatch {
	b := obsBatch{Model: model, Records: make([]trace.ProbeRecord, 0, n), WindowOutliers: -1}
	var req struct {
		Latencies []float64 `json:"latencies"`
		Outliers  int       `json:"outliers,omitempty"`
		SpacingS  float64   `json:"spacing_s"`
	}
	req.Latencies = make([]float64, 0, n-outliers)
	req.Outliers, req.SpacingS = outliers, obsSpacing
	for range n - outliers {
		l := p.completed[r.IntN(len(p.completed))]
		req.Latencies = append(req.Latencies, l)
		b.Records = append(b.Records, trace.ProbeRecord{Latency: l, Status: trace.StatusCompleted})
	}
	// The handler appends outliers after the latencies, censored at
	// the timeout; mirror that so in-process replays see the same
	// records.
	for range outliers {
		b.Records = append(b.Records, trace.ProbeRecord{Latency: p.timeout, Status: trace.StatusOutlier})
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(fmt.Sprintf("encoding observation batch: %v", err)) // finite floats always encode
	}
	b.Body = body
	return b
}

// ingestGen draws the ingest-fresh batches: first settle, which fills
// every model's window with 32 batches, then next, round-robin over the
// models, 64 resampled probes each.
//
// Each batch evicts the oldest batch of its model's window, and it
// carries one outlier more than that batch did, so every rebuild
// serves a new outlier ratio ρ, as the window of a deployment whose
// probes keep coming does. That matters to the daemon: it keeps
// integral tables per (1-ρ, copies) key and hands the old epoch's keys
// on to each rebuild, up to 64 of them, so once a model has seen
// enough ratios a rebuild whose ρ is new builds none of its own and
// its recommend falls back to uncached walks. Resampled outliers make
// ρ random-walk over a few dozen values k/2048 and revisit them, and a
// revisited value that is still cached is answered a third faster, so a
// run's figures depended on how often its walk came back. A ρ that
// only grows keeps every measured rebuild in the same state.
type ingestGen struct {
	r      *rand.Rand
	pools  map[string]*obsPool
	blocks map[string][]int // outliers per batch in each model's window, oldest first
	i      int
}

func newIngestGen(seed, salt uint64, pools map[string]*obsPool) *ingestGen {
	return &ingestGen{r: newRand(seed, salt), pools: pools, blocks: map[string][]int{}}
}

// settle returns the batches that fill each model's window, the
// model's outliers spread evenly over them; the last one per model
// states the window's outlier count.
func (g *ingestGen) settle() []obsBatch {
	var out []obsBatch
	const n = windowRecords / ingestBatch
	for _, m := range planModels {
		p := g.pools[m]
		total := int(math.Round(p.share * windowRecords))
		blocks := make([]int, n)
		for j := range blocks {
			blocks[j] = (j+1)*total/n - j*total/n
			out = append(out, p.batch(g.r, m, ingestBatch, blocks[j]))
		}
		out[len(out)-1].WindowOutliers = total
		g.blocks[m] = blocks
	}
	return out
}

// next draws the next measured batch; settle must have run.
func (g *ingestGen) next() obsBatch {
	m := planModels[g.i%len(planModels)]
	g.i++
	blocks := g.blocks[m]
	k := min(blocks[0]+1, ingestBatch)
	g.blocks[m] = append(blocks[1:], k)
	total := 0
	for _, o := range g.blocks[m] {
		total += o
	}
	b := g.pools[m].batch(g.r, m, ingestBatch, k)
	b.WindowOutliers = total
	return b
}
