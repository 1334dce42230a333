package ship

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/segstore"
)

// dialHello connects to addr, sends h and returns the connection and
// the type of the merger's answer.
func dialHello(t *testing.T, addr string, h Hello) (net.Conn, byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if err := WriteJSONFrame(conn, FrameHello, h); err != nil {
		t.Fatal(err)
	}
	typ, _, err := ReadFrame(conn)
	if err != nil {
		t.Fatalf("hello %+v: %v", h, err)
	}
	return conn, typ
}

// done completes a peer's done exchange.
func done(t *testing.T, conn net.Conn) {
	t.Helper()
	if err := WriteJSONFrame(conn, FrameDone, Done{}); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := ReadFrame(conn); err != nil || typ != FrameDoneAck {
		t.Fatalf("done answered with frame %d, err %v", typ, err)
	}
}

// The first accepted hello pins the fleet size: a PoP of another fleet
// owns another share of the groups, and one outside the fleet owns none,
// so either is refused and never counts toward ExpectPoPs — while the
// fleet's own PoPs still complete it.
func TestMergerPinsFleet(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m, addr, wait := startMerger(t, ctx, t.TempDir(), 2)

	conn, typ := dialHello(t, addr, Hello{Origin: "fleet test", PoP: 0, Pops: 2})
	if typ != FrameHelloAck {
		t.Fatalf("first hello answered with frame %d", typ)
	}
	done(t, conn)

	for _, h := range []Hello{
		{Origin: "fleet test", PoP: 1, Pops: 3},
		{Origin: "fleet test", PoP: 5, Pops: 2},
	} {
		conn, typ := dialHello(t, addr, h)
		if typ != FrameErr {
			// Let a wrongly accepted peer's done land, so PopsDone shows it.
			done(t, conn)
			t.Errorf("hello %+v answered with frame %d, want a refusal", h, typ)
		}
	}
	if got := m.Stats().PopsDone; got != 1 {
		t.Fatalf("PopsDone = %d after refused hellos, want 1", got)
	}

	conn, typ = dialHello(t, addr, Hello{Origin: "fleet test", PoP: 1, Pops: 2})
	if typ != FrameHelloAck {
		t.Fatalf("the fleet's second PoP answered with frame %d", typ)
	}
	done(t, conn)
	if err := wait(); err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// merge_conns counts open connections: one while a peer is connected,
// none once a severed peer and a completed one have both gone.
func TestMergerConnsGauge(t *testing.T) {
	reg := obs.NewRegistry()
	m, err := NewMerger(MergerOptions{SpoolDir: t.TempDir(), ExpectPoPs: 1, Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // a failing test leaves no Serve behind
	errc := make(chan error, 1)
	go func() { errc <- m.Serve(ctx, l) }()
	gauge := reg.Gauge("merge_conns")

	severed, typ := dialHello(t, l.Addr().String(), Hello{Origin: "conns test", PoP: 0, Pops: 1})
	if typ != FrameHelloAck {
		t.Fatalf("hello answered with frame %d", typ)
	}
	if got := gauge.Value(); got != 1 {
		t.Fatalf("merge_conns = %v with one peer connected, want 1", got)
	}
	_ = severed.Close()

	conn, typ := dialHello(t, l.Addr().String(), Hello{Origin: "conns test", PoP: 0, Pops: 1})
	if typ != FrameHelloAck {
		t.Fatalf("reconnect hello answered with frame %d", typ)
	}
	done(t, conn)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after the last expected PoP finished")
	}
	if got := gauge.Value(); got != 0 {
		t.Fatalf("merge_conns = %v after every peer left, want 0", got)
	}
}

// A PoP holds one connection past its hello: a second hello from PoP 0
// closes the first connection, merge_conns settles at one, and the
// second connection ships as usual.
func TestMergerOneConnPerPoP(t *testing.T) {
	reg := obs.NewRegistry()
	m, err := NewMerger(MergerOptions{SpoolDir: t.TempDir(), ExpectPoPs: 1, Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // a failing test leaves no Serve behind
	errc := make(chan error, 1)
	go func() { errc <- m.Serve(ctx, l) }()
	gauge := reg.Gauge("merge_conns")

	h := Hello{Origin: "one conn test", PoP: 0, Pops: 1}
	first, typ := dialHello(t, l.Addr().String(), h)
	if typ != FrameHelloAck {
		t.Fatalf("first hello answered with frame %d", typ)
	}
	second, typ := dialHello(t, l.Addr().String(), h)
	if typ != FrameHelloAck {
		t.Fatalf("second hello answered with frame %d", typ)
	}

	if err := first.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFrame(first); !errors.Is(err, io.EOF) {
		t.Fatalf("the replaced connection read %v, want EOF", err)
	}
	for deadline := time.Now().Add(5 * time.Second); gauge.Value() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("merge_conns = %v with one PoP connected twice, want 1", gauge.Value())
		}
	}

	blob := []byte("one conn segment")
	hdr := ShipHeader{SegID: 3, Hash: crcOf(blob), Meta: segstore.SegmentMeta{Bytes: int64(len(blob)), CRC: crcOf(blob), Samples: 1}}
	payload, err := EncodeShipPayload(hdr, blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(second, FrameShip, payload); err != nil {
		t.Fatal(err)
	}
	typ, p, err := ReadFrame(second)
	if err != nil || typ != FrameAck {
		t.Fatalf("shipment answered with frame %d, err %v", typ, err)
	}
	var ack Ack
	if err := unmarshalFrame(p, &ack); err != nil || ack.SegID != 3 || ack.Dup {
		t.Fatalf("ack %+v, err %v; want a fresh ack of segment 3", ack, err)
	}
	done(t, second)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after the PoP finished")
	}
}

// At most maxPendingHellos connections wait for their hello: with that
// many silent peers connected, the next connection is closed at once
// and counted in merge_hello_refused_total, and a PoP that connects
// once a silent peer has left still completes its exchange.
func TestMergerCapsPendingHellos(t *testing.T) {
	reg := obs.NewRegistry()
	m, err := NewMerger(MergerOptions{SpoolDir: t.TempDir(), ExpectPoPs: 1, Reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // a failing test leaves no Serve behind
	errc := make(chan error, 1)
	go func() { errc <- m.Serve(ctx, l) }()
	addr := l.Addr().String()

	silent := make([]net.Conn, maxPendingHellos)
	for i := range silent {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		silent[i] = c
		t.Cleanup(func() { _ = c.Close() }) // unwedges a Serve waiting on its handlers
	}
	for deadline := time.Now().Add(5 * time.Second); m.Stats().Conns < maxPendingHellos; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the merger accepted %d of %d silent peers", m.Stats().Conns, maxPendingHellos)
		}
	}

	over, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = over.Close() })
	if err := over.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFrame(over); !errors.Is(err, io.EOF) {
		t.Fatalf("a connection past the cap read %v, want EOF", err)
	}
	if got := reg.Counter("merge_hello_refused_total").Value(); got != 1 {
		t.Fatalf("merge_hello_refused_total = %d, want 1", got)
	}

	_ = silent[0].Close()
	gauge := reg.Gauge("merge_conns")
	for deadline := time.Now().Add(5 * time.Second); gauge.Value() != maxPendingHellos-1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("merge_conns = %v after a silent peer left, want %d", gauge.Value(), maxPendingHellos-1)
		}
	}
	conn, typ := dialHello(t, addr, Hello{Origin: "cap test", PoP: 0, Pops: 1})
	if typ != FrameHelloAck {
		t.Fatalf("hello after a slot freed answered with frame %d", typ)
	}
	done(t, conn)
	for _, c := range silent[1:] {
		_ = c.Close()
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after the expected PoP finished and the silent peers left")
	}
}
