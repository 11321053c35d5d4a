package obs

import (
	"context"
	"strconv"
	"time"
)

// Attr is one span attribute, stored stringly for export.
type Attr struct {
	Key   string
	Value string
}

// Span is one traced attack phase: a named interval with begin/end in
// simulated cycles *and* host wall-time, a parent (spans nest via a
// per-registry stack), and free-form attributes. A nil *Span (disabled
// observability) no-ops on every method.
type Span struct {
	r *Registry

	ID     int
	Parent int // parent span ID, -1 at the root
	Name   string

	StartCycle uint64
	EndCycle   uint64
	StartWall  time.Time
	EndWall    time.Time

	// wallOnly marks spans whose cycle fields are meaningless (phases that
	// span several machines, e.g. experiments.RunAll stages); the exporter
	// places them on the wall-clock track.
	wallOnly bool
	// detached marks request spans, which never join the nesting stack:
	// their lifetimes overlap arbitrarily, and stack-based nesting would
	// force-close unrelated siblings.
	detached bool
	ended    bool

	Attrs []Attr
}

// StartSpan opens a span at the given simulated cycle (pipeline.Cycle()) and
// the current wall time, nested under the innermost open span.
func (r *Registry) StartSpan(name string, cycle uint64) *Span {
	return r.startSpan(name, cycle, false)
}

// StartWallSpan opens a wall-time-only span: a phase with no single machine
// cycle domain, such as one experiments.RunAll stage.
func (r *Registry) StartWallSpan(name string) *Span {
	return r.startSpan(name, 0, true)
}

// StartRequestSpan opens a wall-time-only span for one part of a served
// request (a daemon's handling of it, one scheduler job it sharded into),
// stamped with the request ID ctx carries, if any. Request spans run
// concurrently, so they do not join the registry's nesting stack: stacked
// spans assume LIFO lifetimes, and ending one overlapping sibling would
// force-close the others. They have no parent and close independently.
func (r *Registry) StartRequestSpan(ctx context.Context, name string) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := &Span{
		r:         r,
		ID:        r.nextSpanID,
		Parent:    -1,
		Name:      name,
		StartWall: time.Now(),
		wallOnly:  true,
		detached:  true,
	}
	if id := RequestIDFrom(ctx); id != "" {
		sp.Attrs = []Attr{{Key: RequestIDAttr, Value: id}}
	}
	r.nextSpanID++
	r.spans = append(r.spans, sp)
	return sp
}

func (r *Registry) startSpan(name string, cycle uint64, wallOnly bool) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := &Span{
		r:          r,
		ID:         r.nextSpanID,
		Parent:     -1,
		Name:       name,
		StartCycle: cycle,
		StartWall:  time.Now(),
		wallOnly:   wallOnly,
	}
	r.nextSpanID++
	if n := len(r.stack); n > 0 {
		sp.Parent = r.stack[n-1].ID
	}
	r.stack = append(r.stack, sp)
	r.spans = append(r.spans, sp)
	return sp
}

// End closes the span at the given simulated cycle (ignored for wall-only
// spans) and pops it — together with any still-open descendants, which are
// force-closed at the same instant — off the registry's span stack.
func (sp *Span) End(cycle uint64) {
	if sp == nil {
		return
	}
	r := sp.r
	r.mu.Lock()
	defer r.mu.Unlock()
	if sp.ended {
		return
	}
	if sp.detached {
		sp.ended = true
		sp.EndCycle = cycle
		sp.EndWall = time.Now()
		return
	}
	at := -1
	for i := len(r.stack) - 1; i >= 0; i-- {
		if r.stack[i] == sp {
			at = i
			break
		}
	}
	if at < 0 {
		// Not on the stack: already force-closed by an ancestor's End; its
		// fields were set then, so nothing more to do.
		return
	}
	now := time.Now()
	for i := len(r.stack) - 1; i >= at; i-- {
		s := r.stack[i]
		s.ended = true
		s.EndCycle = cycle
		s.EndWall = now
	}
	r.stack = r.stack[:at]
}

// Attr attaches a string attribute (CPU model, attack kind, verdict, ...).
func (sp *Span) Attr(key, value string) {
	if sp == nil {
		return
	}
	sp.r.mu.Lock()
	sp.Attrs = append(sp.Attrs, Attr{Key: key, Value: value})
	sp.r.mu.Unlock()
}

// AttrU64 attaches an unsigned integer attribute. The conversion happens
// only on enabled registries, keeping the disabled path allocation-free.
func (sp *Span) AttrU64(key string, v uint64) {
	if sp == nil {
		return
	}
	sp.Attr(key, strconv.FormatUint(v, 10))
}

// AttrInt attaches an integer attribute.
func (sp *Span) AttrInt(key string, v int) {
	if sp == nil {
		return
	}
	sp.Attr(key, strconv.Itoa(v))
}

// AttrBool attaches a boolean attribute.
func (sp *Span) AttrBool(key string, v bool) {
	if sp == nil {
		return
	}
	sp.Attr(key, strconv.FormatBool(v))
}

// AttrHex attaches an address attribute rendered as 0x-prefixed hex.
func (sp *Span) AttrHex(key string, v uint64) {
	if sp == nil {
		return
	}
	sp.Attr(key, "0x"+strconv.FormatUint(v, 16))
}

// Spans returns every span recorded so far (open spans included), in start
// order.
func (r *Registry) Spans() []*Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Span(nil), r.spans...)
}
