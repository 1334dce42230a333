package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/studyd"
)

// A client that opens a connection and sends half a request line is
// disconnected when readHeaderTimeout runs out, not kept for the daemon's
// life, and /healthz answers other clients meanwhile.
func TestServerDropsClientsThatNeverFinishTheirHeaders(t *testing.T) {
	d, err := studyd.New(studyd.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(d.Handler())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		_ = srv.Close()
		if err := <-served; err != http.ErrServerClosed {
			t.Errorf("Serve: %v", err)
		}
	}()

	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = slow.Close() }()
	opened := time.Now()
	if _, err := slow.Write([]byte("GET /healthz HT")); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatalf("/healthz beside the stalled client: %v", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz beside the stalled client: %s", resp.Status)
	}

	// Whatever the server has to say to half a request line (net/http
	// sends a 400 or nothing, by version), the read ends with the
	// connection, at the timeout and not at this test's deadline.
	if err := slow.SetReadDeadline(opened.Add(readHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, slow); err != nil {
		t.Fatalf("still connected %v after half a request line (%v); readHeaderTimeout is %v", time.Since(opened).Round(time.Millisecond), err, readHeaderTimeout)
	}
	if held := time.Since(opened); held < readHeaderTimeout-time.Second {
		t.Fatalf("disconnected after %v, before readHeaderTimeout (%v)", held, readHeaderTimeout)
	}
}
