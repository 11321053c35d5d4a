package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"whisper/internal/obs"
	"whisper/internal/server"
)

// TestEdgeSharedByBothDaemons runs the same edge cases against whisperd's
// and the gateway's handlers, which share one server edge: request-ID
// adoption and replacement, the ID in error bodies, Allow on a 405, and 503
// on /v1/run once Shutdown has begun.
func TestEdgeSharedByBothDaemons(t *testing.T) {
	srv, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	gw, err := New(Config{Backends: []string{newStubBackend(t, `{"hash":"a"}`).addr()}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		d    server.Daemon
	}{{"whisperd", srv}, {"gateway", gw}} {
		name, d := c.name, c.d
		ts := httptest.NewServer(d.Handler())
		defer ts.Close()
		do := func(method, path, id, body string) (*http.Response, map[string]any) {
			t.Helper()
			req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set(server.RequestIDHeader, id)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var doc map[string]any
			json.NewDecoder(resp.Body).Decode(&doc)
			return resp, doc
		}

		resp, _ := do(http.MethodGet, "/readyz", "bad id with spaces", "")
		if got := resp.Header.Get(server.RequestIDHeader); got == "bad id with spaces" || !obs.ValidRequestID(got) {
			t.Errorf("%s: invalid request ID answered with %q, want a fresh valid one", name, got)
		}
		resp, _ = do(http.MethodGet, "/readyz", "edge-valid-1", "")
		if got := resp.Header.Get(server.RequestIDHeader); got != "edge-valid-1" {
			t.Errorf("%s: valid request ID echoed as %q", name, got)
		}
		resp, doc := do(http.MethodGet, "/v1/run", "edge-405", "")
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
			t.Errorf("%s: GET /v1/run: %d with Allow %q, want 405 with Allow POST",
				name, resp.StatusCode, resp.Header.Get("Allow"))
		}
		if doc["request_id"] != "edge-405" || doc["error"] != "POST only" {
			t.Errorf("%s: 405 body %v, want the request ID and \"POST only\"", name, doc)
		}

		if err := d.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		resp, doc = do(http.MethodPost, "/v1/run", "edge-drain", `{"experiment":"table2"}`)
		if resp.StatusCode != http.StatusServiceUnavailable || doc["request_id"] != "edge-drain" {
			t.Errorf("%s: /v1/run after Shutdown: %d %v, want 503 carrying the request ID", name, resp.StatusCode, doc)
		}
	}
}
