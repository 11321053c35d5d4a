package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"whisper/internal/cluster"
	"whisper/internal/server"
)

// backend is one in-process whisperd: a server.Server behind its own
// loopback listener.
type backend struct {
	name   string // the address the gateway knows it by
	addr   string // the real 127.0.0.1:port
	srv    *server.Server
	hs     *http.Server
	served chan error
	dir    string // disk cache directory, removed on close ("" for none)
}

// startBackend serves a new server.Server built from cfg; wrap, when
// non-nil, sits in front of its handler.
func startBackend(name string, cfg server.Config, wrap func(http.Handler) http.Handler) (*backend, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	b := &backend{name: name, addr: ln.Addr().String(), srv: srv,
		hs: &http.Server{Handler: h}, served: make(chan error, 1), dir: cfg.CacheDir}
	go func() { b.served <- b.hs.Serve(ln) }()
	return b, nil
}

func (b *backend) url() string { return "http://" + b.addr + "/v1/run" }

// close stops serving, drains the server and removes its disk cache.
func (b *backend) close(ctx context.Context) error {
	err := b.hs.Shutdown(ctx)
	if serr := <-b.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := b.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if b.dir != "" {
		if rerr := os.RemoveAll(b.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// gatewayStack is an in-process whispergate over in-process backends.
type gatewayStack struct {
	backends []*backend
	names    []string
	gw       *cluster.Gateway
	tr       *http.Transport
	hs       *http.Server
	served   chan error
	addr     string
}

// startGateway fronts backends with a gateway built from cfg. Backends are
// configured by fixed names ("backend-1:80", ...) that the gateway's
// transport resolves to their loopback listeners, so the consistent-hash
// ring — and with it every key's home backend — is the same in every run,
// whatever ports the listeners got.
func startGateway(backends []*backend, cfg cluster.Config) (*gatewayStack, error) {
	addrs := make(map[string]string, len(backends))
	var names []string
	for _, b := range backends {
		addrs[b.name] = b.addr
		names = append(names, b.name)
	}
	// The forwarding transport mirrors the default client whispergate uses,
	// minus any proxy.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.Proxy = nil
	dialer := &net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if a, ok := addrs[addr]; ok {
			addr = a
		}
		return dialer.DialContext(ctx, network, addr)
	}
	cfg.Backends = names
	cfg.HTTP = &http.Client{Transport: tr}
	gw, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	gw.Start()
	g := &gatewayStack{backends: backends, names: names, gw: gw, tr: tr,
		hs: &http.Server{Handler: gw.Handler()}, served: make(chan error, 1), addr: ln.Addr().String()}
	go func() { g.served <- g.hs.Serve(ln) }()
	return g, nil
}

func (g *gatewayStack) url() string { return "http://" + g.addr + "/v1/run" }

// close drains the gateway, then every backend.
func (g *gatewayStack) close(ctx context.Context) error {
	err := g.gw.Shutdown(ctx)
	if herr := g.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-g.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	g.tr.CloseIdleConnections()
	for _, b := range g.backends {
		if berr := b.close(ctx); err == nil {
			err = berr
		}
	}
	return err
}

// gatewayDefaults is whispergate's flag defaults: hedging on, and every
// other knob left for cluster.New to default.
func gatewayDefaults() cluster.Config { return cluster.Config{Hedge: true} }

// startBackends starts n backends named backend-1:80 ... with cfg, each
// with a fresh disk cache under dir; wrapLast, when non-nil, wraps the last
// backend's handler.
func startBackends(n int, cfg server.Config, dir string, wrapLast func(http.Handler) http.Handler) ([]*backend, error) {
	var bs []*backend
	for i := 0; i < n; i++ {
		c := cfg
		d, err := os.MkdirTemp(dir, "cache-")
		if err != nil {
			closeAll(bs)
			return nil, err
		}
		c.CacheDir = d
		var wrap func(http.Handler) http.Handler
		if i == n-1 {
			wrap = wrapLast
		}
		b, err := startBackend(fmt.Sprintf("backend-%d:80", i+1), c, wrap)
		if err != nil {
			os.RemoveAll(d)
			closeAll(bs)
			return nil, err
		}
		bs = append(bs, b)
	}
	return bs, nil
}

// closeAll closes backends on a set-up error path, where the set-up error
// is the one worth reporting.
func closeAll(bs []*backend) {
	for _, b := range bs {
		_ = b.close(context.Background())
	}
}

// delayRuns makes a handler slow but alive: every /v1/run waits d before it
// is served (or until its caller gives up); health probes are not delayed.
func delayRuns(d time.Duration) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/run" {
				t := time.NewTimer(d)
				select {
				case <-t.C:
				case <-r.Context().Done():
					t.Stop()
					return
				}
			}
			h.ServeHTTP(w, r)
		})
	}
}
