package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"whisper/internal/obs"
	"whisper/internal/obs/logging"
	"whisper/internal/server"
)

// SweepRequest is the POST /v1/sweep body: an ordered list of cells, each
// a normal /v1/run request. A suite (Table 2 across seeds, the KASLR slot
// matrix, a noise/mitigation grid) decomposes into exactly such a list —
// every cell is independent, so the gateway fans them out across the ring.
type SweepRequest struct {
	Cells []server.Request `json:"cells"`
}

// maxSweepCells bounds one sweep's fan-out so a single request cannot pin
// the whole cluster.
const maxSweepCells = 4096

// maxSweepBody caps a POST /v1/sweep body: 1 KiB per cell at maxSweepCells.
const maxSweepBody = 4 << 20

// SweepCellsHeader reports how many cells a sweep response streams.
const SweepCellsHeader = "X-Whisper-Sweep-Cells"

// sweepContentType marks the response as a stream of concatenated JSON
// envelopes (decodable with json.Decoder in a loop).
const sweepContentType = "application/x-json-stream"

// handleSweep is POST /v1/sweep: scatter-gather over the ring. Every cell
// routes by its own canonical hash (cache affinity per cell, exactly as if
// each were POSTed to /v1/run individually) under bounded concurrency, and
// the response streams each cell's envelope bytes in request order as soon
// as the cell — and every cell before it — has finished.
//
// Because each envelope is the deterministic canonical encoding, the
// streamed concatenation is byte-identical to a single-node run of the
// same cells in order, at any backend count, any concurrency, and any
// failover schedule — the property the cluster identity test and the CI
// smoke job pin.
func (g *Gateway) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, r, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if !g.begin() {
		writeError(w, r, http.StatusServiceUnavailable, "gateway draining")
		return
	}
	defer g.inflight.Done()
	var sreq SweepRequest
	if status, err := server.DecodeBody(w, r, maxSweepBody, &sreq); err != nil {
		writeError(w, r, status, err.Error())
		return
	}
	if len(sreq.Cells) == 0 {
		writeError(w, r, http.StatusBadRequest, "empty sweep: need at least one cell")
		return
	}
	if len(sreq.Cells) > maxSweepCells {
		writeError(w, r, http.StatusBadRequest,
			fmt.Sprintf("sweep too large: %d cells (max %d)", len(sreq.Cells), maxSweepCells))
		return
	}
	// Normalize every cell before any work: a malformed cell fails the
	// whole sweep up front with its index, never half-way into a stream.
	cells := make([]server.Request, len(sreq.Cells))
	for i, c := range sreq.Cells {
		norm, err := c.Normalize()
		if err != nil {
			writeError(w, r, http.StatusBadRequest, fmt.Sprintf("cell %d: %v", i, err))
			return
		}
		cells[i] = norm
	}
	g.reg.Counter("gate.sweeps").Inc()
	sp := g.reg.StartDetachedWallSpan("gate.sweep")
	sp.AttrInt("cells", len(cells))
	if id := obs.RequestIDFrom(r.Context()); id != "" {
		sp.Attr(obs.RequestIDAttr, id)
	}
	defer sp.End(0)

	w.Header().Set("Content-Type", sweepContentType)
	w.Header().Set(SweepCellsHeader, fmt.Sprint(len(cells)))
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// Scatter under bounded concurrency (sched-style: a fixed worker
	// budget over an indexed job list, results collected positionally),
	// gather strictly in cell order. A one-slot buffered channel per cell
	// lets workers run ahead of the writer without unbounded buffering.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	par := g.sweepParallel()
	sp.AttrInt("parallel", par)
	results := make([]chan fwdResult, len(cells))
	for i := range results {
		results[i] = make(chan fwdResult, 1)
	}
	sem := make(chan struct{}, par)
	for i := range cells {
		i := i
		go func() {
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				results[i] <- fwdResult{err: ctx.Err()}
				return
			}
			defer func() { <-sem }()
			results[i] <- g.forwardRun(ctx, cells[i])
		}()
	}

	start := time.Now()
	for i := range cells {
		res := <-results[i]
		if res.err != nil || res.status != http.StatusOK {
			// The stream is already committed (200 + partial body); the
			// best honest signal is an error envelope in-stream, then stop.
			// A cell only gets here after the full retry ladder failed.
			msg := fmt.Sprintf("cell %d (%s): ", i, cells[i].Experiment)
			if res.err != nil {
				msg += res.err.Error()
			} else {
				msg += fmt.Sprintf("backend %s replied %d", res.backend, res.status)
			}
			g.reg.Counter("gate.sweep.cells", obs.L("result", "failed")).Inc()
			logging.From(ctx).LogAttrs(ctx, slog.LevelError, "sweep cell failed",
				slog.Int("cell", i), slog.String("error", msg))
			json.NewEncoder(w).Encode(struct {
				Error string `json:"error"`
				Cell  int    `json:"cell"`
			}{msg, i})
			cancel()
			for j := i + 1; j < len(cells); j++ {
				<-results[j] // unblock remaining workers
			}
			return
		}
		g.reg.Counter("gate.sweep.cells", obs.L("result", "ok")).Inc()
		w.Write(res.body)
		if flusher != nil {
			flusher.Flush()
		}
	}
	g.reg.Histogram("gate.sweep.us").Observe(uint64(time.Since(start).Microseconds()))
}

// sweepParallel resolves the per-sweep concurrency bound.
func (g *Gateway) sweepParallel() int {
	if g.cfg.SweepParallel > 0 {
		return g.cfg.SweepParallel
	}
	par := 2 * g.pool.Size()
	if par < 1 {
		par = 1
	}
	if par > 32 {
		par = 32
	}
	return par
}
