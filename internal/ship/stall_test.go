package ship

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"
)

// stallPeer starts a merger and connects one peer to it, returning
// once the merger has accepted the connection: its handler is reading
// the peer's first frame.
func stallPeer(t *testing.T, ctx context.Context) (*Merger, net.Conn, func() error) {
	t.Helper()
	m, addr, wait := startMerger(t, ctx, t.TempDir(), 1)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() }) // unwedges a merger that never drops the peer
	for deadline := time.Now().Add(5 * time.Second); m.Stats().Conns == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the merger never accepted the peer")
		}
	}
	return m, conn, wait
}

// hello completes the peer's hello exchange.
func hello(t *testing.T, conn net.Conn) {
	t.Helper()
	if err := WriteJSONFrame(conn, FrameHello, Hello{Origin: "stall test", PoP: 0, Pops: 1}); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := ReadFrame(conn); err != nil || typ != FrameHelloAck {
		t.Fatalf("hello answered with frame %d, err %v", typ, err)
	}
}

// cancelledServeReturns cancels the merger's context and requires
// Serve to return its cause within a second.
func cancelledServeReturns(t *testing.T, cancel context.CancelFunc, wait func() error) {
	t.Helper()
	cancel()
	done := make(chan error, 1)
	go func() { done <- wait() }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Serve returned %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("a cancelled Serve is still waiting on a stalled peer after 1s")
	}
}

// A peer that connects and never says hello cannot keep a cancelled
// Serve from returning.
func TestMergerStallSilentPeer(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, _, wait := stallPeer(t, ctx)
	cancelledServeReturns(t, cancel, wait)
}

// Nor can a peer that sends half a frame and stops.
func TestMergerStallHalfFrame(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, conn, wait := stallPeer(t, ctx)
	hello(t, conn)
	var frame bytes.Buffer
	if err := WriteFrame(&frame, FrameShip, bytes.Repeat([]byte{7}, 4096)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame.Bytes()[:frame.Len()/2]); err != nil {
		t.Fatal(err)
	}
	cancelledServeReturns(t, cancel, wait)
}

// A peer that sends nothing for the frame deadline is dropped, before
// its hello and after it, while Serve keeps running.
func TestMergerStallIdleDeadline(t *testing.T) {
	defer func(d time.Duration) { frameDeadline = d }(frameDeadline)
	frameDeadline = 100 * time.Millisecond

	for _, tc := range []struct {
		name  string
		hello bool
	}{{"before hello", false}, {"after hello", true}} {
		ctx, cancel := context.WithCancel(context.Background())
		_, conn, wait := stallPeer(t, ctx)
		if tc.hello {
			hello(t, conn)
		}
		start := time.Now()
		if err := conn.SetReadDeadline(start.Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		_, _, err := ReadFrame(conn)
		var ne net.Error
		if err == nil || (errors.As(err, &ne) && ne.Timeout()) {
			t.Fatalf("%s: an idle peer is still connected after %v (read: %v), deadline %v", tc.name, time.Since(start), err, frameDeadline)
		}
		cancelledServeReturns(t, cancel, wait)
	}
}
