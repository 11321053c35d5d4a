package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sync"

	"whisper/internal/server"
)

// refs memoizes the SHA-256 of server.Execute's envelope per request hash:
// the reference every served body is compared against. A traced run reuses
// the untraced pass's references.
type refs struct {
	mu   sync.Mutex
	sums map[string][32]byte
}

func newRefs() *refs { return &refs{sums: map[string][32]byte{}} }

// check compares the body of every successful outcome with a direct
// server.Execute of its request, computing missing references nproc at a
// time, and returns one problem per mismatching response.
func (r *refs) check(ctx context.Context, outs []outcome) ([]string, error) {
	var todo []*call
	queued := map[string]bool{}
	r.mu.Lock()
	for i := range outs {
		c := outs[i].c
		if c == nil || !outs[i].ok() || queued[c.hash] {
			continue
		}
		if _, ok := r.sums[c.hash]; !ok {
			queued[c.hash] = true
			todo = append(todo, c)
		}
	}
	r.mu.Unlock()

	var (
		wg    sync.WaitGroup
		next  = make(chan *call)
		errMu sync.Mutex
		first error
	)
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				body, err := server.Execute(ctx, c.req, 1, nil)
				if err != nil {
					errMu.Lock()
					if first == nil {
						first = fmt.Errorf("reference run of %s seed %d: %w", c.req.Experiment, c.req.Seed, err)
					}
					errMu.Unlock()
					continue
				}
				r.mu.Lock()
				r.sums[c.hash] = sha256.Sum256(body)
				r.mu.Unlock()
			}
		}()
	}
	for _, c := range todo {
		next <- c
	}
	close(next)
	wg.Wait()
	if first != nil {
		return nil, first
	}

	var probs []string
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range outs {
		o := &outs[i]
		if o.c == nil || !o.ok() {
			continue
		}
		if o.sum != r.sums[o.c.hash] {
			probs = append(probs, fmt.Sprintf("%s seed %d: served body differs from server.Execute", o.c.req.Experiment, o.c.req.Seed))
		}
	}
	return probs, nil
}
