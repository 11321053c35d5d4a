package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"whisper/internal/cluster"
	"whisper/internal/server"
)

// call is one generated POST /v1/run.
type call struct {
	req  server.Request
	hash string // Request.Hash() of the normalized request: what the envelope must carry
	body []byte // the JSON sent on the wire
}

func newCall(req server.Request) (*call, error) {
	norm, err := req.Normalize()
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return &call{req: req, hash: norm.Hash(), body: body}, nil
}

// outcome is what one operation got back. For an open loop, due is when the
// operation was scheduled; for a closed loop, when its client became free.
// Latency runs from due to end, so a stalled generator shows as latency.
type outcome struct {
	idx     int
	c       *call // nil for operations that are not HTTP calls
	due     time.Time
	start   time.Time
	end     time.Time
	cpu0    time.Duration // process CPU time at start
	cpu1    time.Duration // and at end
	cache   string        // X-Whisper-Cache
	backend string        // X-Whisper-Backend (gateway only)
	sum     [32]byte      // SHA-256 of a 200's body
	err     error         // the operation failed or was refused (any non-200)
	problem string        // the operation answered, wrongly
}

func (o *outcome) ok() bool { return o.err == nil && o.problem == "" }

func (o *outcome) latencyMS() float64 {
	if !o.ok() {
		return inf
	}
	return ms(o.end.Sub(o.due))
}

func (o *outcome) lagMS() float64 { return ms(o.start.Sub(o.due)) }

// newClient is the generator's HTTP client: at most conns keep-alive
// connections, and never a proxy.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}}
}

// send performs one call and checks the envelope's hash.
func send(ctx context.Context, hc *http.Client, url string, c *call) outcome {
	o := outcome{c: c, start: time.Now()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(c.body))
	if err != nil {
		o.err, o.end = err, time.Now()
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		o.err, o.end = err, time.Now()
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.end = time.Now()
	o.cache = resp.Header.Get(server.CacheHeader)
	o.backend = resp.Header.Get(cluster.BackendHeader)
	switch {
	case err != nil:
		o.err = err
	case resp.StatusCode != http.StatusOK:
		o.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	default:
		o.sum = sha256.Sum256(body)
		if !envelopeHashIs(body, c.hash) {
			o.problem = fmt.Sprintf("%s seed %d: envelope hash is not Request.Hash() %s", c.req.Experiment, c.req.Seed, c.hash)
		}
	}
	return o
}

// envelopeHashIs reports whether an envelope's "hash" field is want. The
// canonical envelope starts with that field, so a prefix test settles almost
// every response without decoding kilobytes of JSON; anything else decodes.
func envelopeHashIs(body []byte, want string) bool {
	if bytes.HasPrefix(body, []byte(`{`+"\n"+`  "hash": "`+want+`"`)) {
		return true
	}
	var env struct {
		Hash string `json:"hash"`
	}
	return json.Unmarshal(body, &env) == nil && env.Hash == want
}

// maxOpen bounds the calls an open loop keeps in flight, and with them its
// keep-alive connections. No workload comes near it at its rate; past it a
// send waits and its lag shows the wait.
const maxOpen = 64

// openLoop sends calls[i] at start+due[i], each from its own goroutine, so a
// slow response never holds back the next send: the arrivals are those of
// independent users. Latency is measured from the due time.
func openLoop(ctx context.Context, hc *http.Client, url string, calls []*call, due []time.Duration, tr *tracer) []outcome {
	out := make([]outcome, len(calls))
	lanes := make(chan int, maxOpen) // free lanes: one per call in flight
	for l := 0; l < maxOpen; l++ {
		lanes <- l
	}
	var wg sync.WaitGroup
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	start := time.Now()
	for i := range calls {
		at := start.Add(due[i])
		if d := time.Until(at); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
			}
		}
		var lane int
		select {
		case lane = <-lanes:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			for j := i; j < len(calls); j++ {
				out[j] = outcome{idx: j, c: calls[j], due: at, start: at, end: at, err: ctx.Err()}
			}
			break
		}
		wg.Add(1)
		go func(i, lane int, at time.Time) {
			defer wg.Done()
			cpu0 := cpuTime()
			o := send(ctx, hc, url, calls[i])
			o.idx, o.due, o.cpu0, o.cpu1 = i, at, cpu0, cpuTime()
			out[i] = o
			tr.op("open", lane, &o)
			lanes <- lane
		}(i, lane, at)
	}
	wg.Wait()
	return out
}

// closedLoop runs op from clients goroutines, each starting its next
// operation as soon as the previous one ends, until dur (when > 0) has
// elapsed or the first n operations (when n > 0) have been taken. The
// operation in flight at the deadline completes and counts. Outcomes come
// back in operation-index order, each with the process CPU time around it.
func closedLoop(ctx context.Context, clients, n int, dur time.Duration, tr *tracer, op func(ctx context.Context, i int) outcome) []outcome {
	var (
		mu   sync.Mutex
		outs []outcome
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ready := start
			for (dur <= 0 || time.Now().Before(deadline)) && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if n > 0 && i >= n {
					return
				}
				cpu0 := cpuTime()
				o := op(ctx, i)
				o.idx, o.due, o.cpu0, o.cpu1 = i, ready, cpu0, cpuTime()
				ready = o.end
				tr.op("closed", c, &o)
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	sort.Slice(outs, func(i, j int) bool { return outs[i].idx < outs[j].idx })
	return outs
}

// poissonArrivals draws the due offsets of an open loop at rate per second
// over dur. A Poisson process with n arrivals in [0, dur) places them as n
// sorted uniform draws; fixing n at rate*dur keeps the sample count, and so
// which percentiles it supports, the same in every run.
func poissonArrivals(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	due := make([]time.Duration, max(1, int(math.Round(rate*dur.Seconds()))))
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(dur))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}
