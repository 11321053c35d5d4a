package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func getReadiness(t *testing.T, url string) (int, Readiness) {
	t.Helper()
	resp, err := http.Get(url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc Readiness
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("/readyz body is not the readiness document: %v", err)
	}
	return resp.StatusCode, doc
}

// TestReadyzReportsQueueAndDrain pins the /readyz contract the gateway's
// health prober consumes: one JSON shape in every state — 200 with live
// queue depth while serving, 503 with draining=true during drain — so a
// prober can distinguish "winding down" from "dead" without heuristics.
func TestReadyzReportsQueueAndDrain(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv, _ := stubServer(t, Config{MaxInflight: 2, MaxQueue: 8},
		func(ctx context.Context, req Request) ([]byte, error) {
			once.Do(func() { close(started) })
			select {
			case <-release:
			case <-ctx.Done():
			}
			return []byte("{}"), nil
		})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, doc := getReadiness(t, ts.URL)
	if status != http.StatusOK {
		t.Fatalf("idle /readyz status = %d, want 200", status)
	}
	if doc.Status != "ok" || doc.Draining || doc.QueueInflight != 0 || doc.QueueWaiting != 0 {
		t.Fatalf("idle readiness = %+v", doc)
	}
	if doc.MaxInflight != 2 || doc.MaxQueue != 8 {
		t.Fatalf("readiness does not echo the configured bounds: %+v", doc)
	}

	// With an execution stuck in flight, the document reports it.
	reqDone := make(chan struct{})
	go func() {
		defer close(reqDone)
		post(t, ts.URL, Request{Experiment: "table2"})
	}()
	<-started
	status, doc = getReadiness(t, ts.URL)
	if status != http.StatusOK || doc.QueueInflight != 1 {
		t.Fatalf("busy readiness = %d %+v, want 200 with queue_inflight 1", status, doc)
	}

	// Draining: still the same document, now 503 + draining=true, with the
	// in-flight work still visible while the drain completes it.
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	shutDone := make(chan struct{})
	go func() {
		defer close(shutDone)
		srv.Shutdown(shutCtx)
	}()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}
	status, doc = getReadiness(t, ts.URL)
	if status != http.StatusServiceUnavailable || doc.Status != "draining" || !doc.Draining {
		t.Fatalf("draining readiness = %d %+v", status, doc)
	}
	if doc.QueueInflight != 1 {
		t.Fatalf("draining readiness lost the in-flight count: %+v", doc)
	}

	close(release)
	<-reqDone
	<-shutDone
}

// TestReadyzClampsNegativeQueue pins that /readyz reports the queue bound
// the server enforces: a negative MaxQueue admits no waiters, so it reads 0.
func TestReadyzClampsNegativeQueue(t *testing.T) {
	srv, _ := stubServer(t, Config{MaxInflight: 1, MaxQueue: -1},
		func(ctx context.Context, req Request) ([]byte, error) { return []byte("{}"), nil })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if _, doc := getReadiness(t, ts.URL); doc.MaxQueue != 0 {
		t.Fatalf("max_queue = %d for MaxQueue -1, want the enforced 0", doc.MaxQueue)
	}
}
