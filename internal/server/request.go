// Package server is the experiment-serving layer behind cmd/whisperd: an
// HTTP/JSON API over every sweep and attack of internal/experiments, with a
// content-addressed result cache, request coalescing, a bounded admission
// queue with backpressure, and graceful drain.
//
// The soundness of serving cached results rests on the determinism pinned in
// the scheduler and simulator layers: every sweep is a pure function of its
// normalized request — worker count, machine reuse, and completion order
// provably never change a byte — so two requests with equal canonical hashes
// denote the same result, and one execution can serve them all.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"

	"whisper/internal/core"
	"whisper/internal/cpu"
	"whisper/internal/experiments"
	"whisper/internal/kernel"
	"whisper/internal/obs"
)

// hashVersion is the cache-format epoch. Bump it whenever the envelope
// layout, a sweep's output format, or the simulator's numbers change: old
// disk-store entries then miss instead of serving stale bytes.
const hashVersion = "whisper-req-v1"

// Request names one servable computation. Experiment is a sweep name from
// experiments.Sweeps(), "attacks" (the whisper -all suite), or "leak" (the
// per-byte core.Farm Meltdown leak). The zero value of every other field
// means "default"; Normalize resolves them so equal computations hash equal.
type Request struct {
	Experiment string `json:"experiment"`

	// Seed is the deterministic root seed; 0 means the experiment default.
	Seed int64 `json:"seed,omitempty"`

	// Sweep sizing (sweeps only; ignored elsewhere).
	ThroughputBytes int `json:"throughput_bytes,omitempty"`
	KASLRReps       int `json:"kaslr_reps,omitempty"`
	Fig1bBatches    int `json:"fig1b_batches,omitempty"`

	// Attack/leak shaping (attacks and leak only).
	CPU     string   `json:"cpu,omitempty"`     // model microarch or full name
	Secret  string   `json:"secret,omitempty"`  // victim payload to plant
	Attacks []string `json:"attacks,omitempty"` // nil = every family
	KPTI    bool     `json:"kpti,omitempty"`
	FLARE   bool     `json:"flare,omitempty"`
	Docker  bool     `json:"docker,omitempty"`
}

// Default values for the attack-shaped experiments, matching cmd/whisper's
// flag defaults.
const (
	DefaultCPU    = "Kaby Lake"
	DefaultSecret = "squeamish ossifrage"
	// DefaultAttackSeed matches cmd/whisper's -seed default.
	DefaultAttackSeed = 1
)

// Size bounds. Run time grows linearly in each of these, and a running cell
// does not poll its context, so neither a request timeout nor the drain
// deadline could stop an unbounded one.
const (
	maxSecretBytes     = 256
	maxThroughputBytes = 1024 // the paper's payload
	maxKASLRReps       = 64
	maxFig1bBatches    = 64
)

// isAttackShaped reports whether the experiment takes CPU/secret/kernel
// options instead of sweep sizing.
func isAttackShaped(name string) bool { return name == "attacks" || name == "leak" }

// Experiments returns every experiment name the server can run, sorted.
func Experiments() []string {
	names := append(experiments.Sweeps(), "attacks", "leak")
	sort.Strings(names)
	return names
}

// Normalize resolves defaults and drops fields foreign to the experiment,
// returning the canonical request two different spellings of the same
// computation collapse to. It errors on an unknown experiment, attack
// family, or CPU model, on a secret or sweep size over its bound, and on a
// secret that is not valid UTF-8, so a hash is only ever minted for a
// runnable request and never shared by two computations.
func (r Request) Normalize() (Request, error) {
	known := false
	for _, name := range Experiments() {
		if r.Experiment == name {
			known = true
			break
		}
	}
	if !known {
		return Request{}, fmt.Errorf("server: unknown experiment %q (have %v)", r.Experiment, Experiments())
	}
	if isAttackShaped(r.Experiment) {
		if r.Seed == 0 {
			r.Seed = DefaultAttackSeed
		}
		if r.CPU == "" {
			r.CPU = DefaultCPU
		}
		model, ok := ModelByName(r.CPU)
		if !ok {
			return Request{}, fmt.Errorf("server: unknown CPU %q", r.CPU)
		}
		r.CPU = model.Name // canonical spelling: microarch alias → full name
		if r.Secret == "" {
			r.Secret = DefaultSecret
		}
		if len(r.Secret) > maxSecretBytes {
			return Request{}, fmt.Errorf("server: secret of %d bytes over the bound %d", len(r.Secret), maxSecretBytes)
		}
		// Hash encodes with encoding/json, which writes every invalid byte
		// as U+FFFD: two such secrets would share one hash and cache entry.
		if !utf8.ValidString(r.Secret) {
			return Request{}, fmt.Errorf("server: secret is not valid UTF-8")
		}
		if r.Experiment == "leak" {
			r.Attacks = nil // the leak is one fixed attack
		} else if len(r.Attacks) > 0 {
			sel, err := canonicalAttacks(r.Attacks)
			if err != nil {
				return Request{}, err
			}
			r.Attacks = sel
		} else {
			r.Attacks = nil
		}
		r.ThroughputBytes, r.KASLRReps, r.Fig1bBatches = 0, 0, 0
	} else {
		switch {
		case r.ThroughputBytes > maxThroughputBytes:
			return Request{}, fmt.Errorf("server: throughput_bytes %d over the bound %d", r.ThroughputBytes, maxThroughputBytes)
		case r.KASLRReps > maxKASLRReps:
			return Request{}, fmt.Errorf("server: kaslr_reps %d over the bound %d", r.KASLRReps, maxKASLRReps)
		case r.Fig1bBatches > maxFig1bBatches:
			return Request{}, fmt.Errorf("server: fig1b_batches %d over the bound %d", r.Fig1bBatches, maxFig1bBatches)
		}
		p := experiments.SweepParams{
			Seed:            r.Seed,
			ThroughputBytes: r.ThroughputBytes,
			KASLRReps:       r.KASLRReps,
			Fig1bBatches:    r.Fig1bBatches,
		}.Normalize()
		r.Seed = p.Seed
		r.ThroughputBytes = p.ThroughputBytes
		r.KASLRReps = p.KASLRReps
		r.Fig1bBatches = p.Fig1bBatches
		r.CPU, r.Secret, r.Attacks = "", "", nil
		r.KPTI, r.FLARE, r.Docker = false, false, false
	}
	return r, nil
}

// canonicalAttacks validates and orders an attack filter; a filter naming
// every family canonicalizes to nil (the "all" spelling).
func canonicalAttacks(names []string) ([]string, error) {
	all := experiments.AttackNames()
	asked := make(map[string]bool, len(names))
	for _, name := range names {
		ok := false
		for _, known := range all {
			if name == known {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("server: unknown attack %q (have %v)", name, all)
		}
		asked[name] = true
	}
	if len(asked) == len(all) {
		return nil, nil
	}
	sel := make([]string, 0, len(asked))
	for _, name := range all {
		if asked[name] {
			sel = append(sel, name)
		}
	}
	return sel, nil
}

// ModelByName resolves a CPU model by microarchitecture or full name,
// case-insensitively — the same lookup cmd/whisper's -cpu flag does.
func ModelByName(name string) (cpu.Model, bool) {
	for _, m := range cpu.AllModels() {
		if strings.EqualFold(m.Microarch, name) || strings.EqualFold(m.Name, name) {
			return m, true
		}
	}
	return cpu.Model{}, false
}

// Hash returns the canonical content address of a normalized request:
// SHA-256 over the versioned canonical JSON. Two requests hash equal iff
// they denote the same computation; execution knobs (worker count, cache
// placement, telemetry) are deliberately absent.
func (r Request) Hash() string {
	b, err := json.Marshal(r)
	if err != nil {
		// Request is a plain struct of scalars and strings; Marshal cannot
		// fail on it.
		panic(fmt.Sprintf("server: hashing request: %v", err))
	}
	sum := sha256.Sum256(append([]byte(hashVersion+"\n"), b...))
	return hex.EncodeToString(sum[:])
}

// LeakOutcome is the structured result of the "leak" experiment: the
// core.Farm per-byte Meltdown leak.
type LeakOutcome struct {
	Data   string  `json:"data"`
	Cycles uint64  `json:"cycles"`
	Bps    float64 `json:"bps"`
	CPU    string  `json:"cpu"`
}

// Result is the served envelope: the canonical request, its hash, the
// rendered text (when the experiment has a CLI rendering), and the
// structured result. Its JSON encoding is the byte sequence the cache
// stores and every path — cold, cached, coalesced, remote CLI — returns.
type Result struct {
	Hash     string          `json:"hash"`
	Request  Request         `json:"request"`
	Rendered string          `json:"rendered,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
}

// Execute runs a request directly — no cache, no queue — and returns the
// canonical envelope bytes. This is the reference implementation the daemon's
// cached and coalesced paths must be byte-identical to (the identity test
// pins it), and the engine behind `whisperd -oneshot`.
func Execute(ctx context.Context, req Request, parallel int, reg *obs.Registry) ([]byte, error) {
	norm, err := req.Normalize()
	if err != nil {
		return nil, err
	}
	ex := experiments.Exec{Ctx: ctx, Parallel: parallel, Obs: reg}
	env := Result{Hash: norm.Hash(), Request: norm}
	switch {
	case norm.Experiment == "attacks":
		model, _ := ModelByName(norm.CPU)
		cfg := kernel.Config{KASLR: true, KPTI: norm.KPTI, FLARE: norm.FLARE, Docker: norm.Docker}
		rendered, err := experiments.AttackSuite(ex, model, cfg, []byte(norm.Secret), norm.Seed, norm.Attacks)
		if err != nil {
			return nil, err
		}
		env.Rendered = rendered
	case norm.Experiment == "leak":
		model, _ := ModelByName(norm.CPU)
		cfg := kernel.Config{KASLR: true, KPTI: norm.KPTI, FLARE: norm.FLARE, Docker: norm.Docker}
		f := &core.Farm{
			Model: model, Config: cfg, RootSeed: norm.Seed,
			Parallel: parallel, Ctx: ctx, Obs: reg,
		}
		res, err := f.LeakSecret([]byte(norm.Secret))
		if err != nil {
			return nil, err
		}
		out, err := json.Marshal(LeakOutcome{
			Data: string(res.Data), Cycles: res.Cycles, Bps: res.Bps, CPU: model.Name,
		})
		if err != nil {
			return nil, err
		}
		env.Result = out
		env.Rendered = fmt.Sprintf("TET-Meltdown (replica farm) leaked %q\n  critical path %d simulated cycles (%.1f B/s at %.1f GHz)\n",
			res.Data, res.Cycles, res.Bps, model.ClockHz/1e9)
	default:
		sr, err := experiments.RunSweep(ex, norm.Experiment, experiments.SweepParams{
			Seed:            norm.Seed,
			ThroughputBytes: norm.ThroughputBytes,
			KASLRReps:       norm.KASLRReps,
			Fig1bBatches:    norm.Fig1bBatches,
		})
		if err != nil {
			return nil, err
		}
		env.Rendered = sr.Rendered
		if sr.Result != nil {
			out, err := json.Marshal(sr.Result)
			if err != nil {
				return nil, err
			}
			env.Result = out
		}
	}
	body, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}
