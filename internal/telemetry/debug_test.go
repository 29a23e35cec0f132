package telemetry

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestDebugServerMetricsAndPprof(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up_total", "").With().Add(3)
	srv, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "up_total 3") {
		t.Fatalf("/metrics -> %d:\n%s", code, body)
	}
	// Metrics reflect live updates.
	reg.Counter("up_total", "").With().Inc()
	if _, body = get("/metrics"); !strings.Contains(body, "up_total 4") {
		t.Fatalf("/metrics stale:\n%s", body)
	}
	if code, body = get("/debug/pprof/cmdline"); code != http.StatusOK || len(body) == 0 {
		t.Fatalf("/debug/pprof/cmdline -> %d", code)
	}
	if code, _ = get("/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ -> %d", code)
	}
	if code, body = get("/healthz"); code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz -> %d: %q", code, body)
	}
}

func TestDebugServerGracefulClose(t *testing.T) {
	srv, err := ServeDebug("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	// A request in flight when Close begins must complete: Shutdown
	// drains instead of cutting connections.
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(started)
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
		}
		done <- err
	}()
	<-started
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-done; err != nil {
		// The request may race the listener closing before the server
		// ever accepted it: refused, or — when the kernel had already
		// completed the handshake into the accept backlog — reset. Only a
		// request the server had begun and then cut (EOF, a short body, a
		// bad status) is a failure.
		if !errors.Is(err, syscall.ECONNREFUSED) && !errors.Is(err, syscall.ECONNRESET) {
			t.Fatalf("in-flight request: %v", err)
		}
	}
	// After Close the listener is gone.
	if _, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		t.Fatalf("listener still accepting after Close")
	}
	// Close is idempotent (Shutdown on a closed server returns ErrServerClosed
	// and falls back to Close, which is a no-op error-wise).
	srv.Close()
}

func TestManifestRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m_total", "").With().Add(11)
	start := time.Now().Add(-2 * time.Second)
	m := NewManifest("replay", 2014, map[string]string{"interval": "3h"}, start, reg)
	if m.Schema != ManifestSchema || m.Version != ManifestVersion {
		t.Fatalf("manifest header = %+v", m)
	}
	if m.WallSeconds < 1.5 {
		t.Fatalf("wall seconds = %g, want >= 1.5", m.WallSeconds)
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 2014 || got.Config["interval"] != "3h" {
		t.Fatalf("round-trip = %+v", got)
	}
	if len(got.Metrics.Families) != 1 || got.Metrics.Families[0].Series[0].Value != 11 {
		t.Fatalf("metric snapshot lost: %+v", got.Metrics)
	}
}
