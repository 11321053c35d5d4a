// Package logging is the structured-logging layer of internal/obs: leveled
// JSON (or text) log/slog output for the serving path, and context plumbing
// so any layer — HTTP handler, experiments, sched workers, the client — logs
// through the request-scoped logger without new parameters.
//
// Like the rest of internal/obs, disabled logging is free: From on a bare
// context returns a process-wide discard logger whose handler reports every
// level disabled, so the hot-path idiom
//
//	if log := logging.From(ctx); log.Enabled(ctx, slog.LevelDebug) {
//		log.LogAttrs(ctx, slog.LevelDebug, "...", ...)
//	}
//
// costs one context lookup and one boolean check, and allocates nothing
// (pinned by TestServeLogDisabledZeroAlloc in the repository speedguard).
package logging

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"

	"whisper/internal/obs"
)

// Format names for Options.Format / the cmds' -log-format flag.
const (
	FormatJSON = "json"
	FormatText = "text"
)

// Options configures one logger.
type Options struct {
	// Level is the minimum level: "debug", "info", "warn" or "error"
	// (case-insensitive; empty means "info").
	Level string
	// Format is FormatJSON (default) or FormatText.
	Format string
	// Output receives the log stream; nil discards it.
	Output io.Writer
}

// ParseLevel resolves a level name to its slog.Level.
func ParseLevel(name string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "info":
		return slog.LevelInfo, nil
	case "debug":
		return slog.LevelDebug, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("logging: unknown level %q (have debug, info, warn, error)", name)
}

// New builds a leveled structured logger. An error means an unknown level or
// format name — the flag-validation surface of the cmds.
func New(opts Options) (*slog.Logger, error) {
	if opts.Output == nil {
		return Discard(), nil
	}
	level, err := ParseLevel(opts.Level)
	if err != nil {
		return nil, err
	}
	hopts := &slog.HandlerOptions{Level: level}
	switch strings.ToLower(strings.TrimSpace(opts.Format)) {
	case "", FormatJSON:
		return slog.New(slog.NewJSONHandler(opts.Output, hopts)), nil
	case FormatText:
		return slog.New(slog.NewTextHandler(opts.Output, hopts)), nil
	}
	return nil, fmt.Errorf("logging: unknown format %q (have %s, %s)", opts.Format, FormatJSON, FormatText)
}

// nopHandler reports every level disabled; Handle is unreachable
// through slog's front door but still a safe no-op.
type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (d nopHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d nopHandler) WithGroup(string) slog.Handler           { return d }

// discard is the shared no-op logger; a single instance so From never
// allocates.
var discard = slog.New(nopHandler{})

// Discard returns the process-wide no-op logger (never nil).
func Discard() *slog.Logger { return discard }

// logCtxKey carries the request-scoped logger on a context.
type logCtxKey struct{}

// With returns a context carrying log; From recovers it anywhere downstream.
func With(ctx context.Context, log *slog.Logger) context.Context {
	if log == nil {
		return ctx
	}
	return context.WithValue(ctx, logCtxKey{}, log)
}

// From returns the context's logger, or the discard logger when none (or a
// nil context) was supplied. The result is never nil, so call sites need no
// guard beyond the usual Enabled check.
func From(ctx context.Context) *slog.Logger {
	if ctx == nil {
		return discard
	}
	if log, ok := ctx.Value(logCtxKey{}).(*slog.Logger); ok && log != nil {
		return log
	}
	return discard
}

// WithRequestID stamps both observability carriers at once: the request ID
// itself (obs.WithRequestID) and a child logger pre-bound with the matching
// request_id field, so every downstream log line and span carries the same
// correlation key.
func WithRequestID(ctx context.Context, log *slog.Logger, id string) context.Context {
	ctx = obs.WithRequestID(ctx, id)
	if log == nil {
		log = discard
	}
	if id != "" && log != discard {
		log = log.With(slog.String(obs.RequestIDAttr, id))
	}
	return With(ctx, log)
}
