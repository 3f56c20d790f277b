package core

import (
	"context"

	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"greenvm/internal/energy"
	"greenvm/internal/isa"
	"greenvm/internal/jit"
	"greenvm/internal/radio"
	"greenvm/internal/rng"
	"greenvm/internal/vm"
)

// startTCPServer runs a Server behind a loopback listener.
func startTCPServer(t *testing.T, s *Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go NewTCPServer(s, SessionConfig{}).Serve(l) //nolint:errcheck // returns when the listener closes
	return l.Addr().String()
}

func TestTCPRemoteExecution(t *testing.T) {
	p := testProgram(t)
	addr := startTCPServer(t, NewServer(p))
	remote, err := DialServer(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	c := New(ClientConfig{ID: "tcp-client", Prog: p, Server: remote, Channel: radio.Fixed{Cls: radio.Class4}, Strategy: StrategyR, Seed: 7})
	pr := newProfiler(p)
	prof, err := pr.ProfileTarget(workTarget())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Register(workTarget(), prof); err != nil {
		t.Fatal(err)
	}

	res, err := c.Invoke(context.Background(), "App", "work", []vm.Slot{vm.IntSlot(200)})
	if err != nil {
		t.Fatal(err)
	}
	// Reference result.
	v2 := vm.New(p, energy.MicroSPARCIIep())
	want, _ := v2.InvokeByName("App", "work", []vm.Slot{vm.IntSlot(200)})
	if res.I != want.I {
		t.Errorf("TCP remote result %d, want %d", res.I, want.I)
	}
	if c.Stats.ModeCounts[ModeRemote] != 1 {
		t.Errorf("mode counts %v", c.Stats.ModeCounts)
	}
	if c.VM.Acct.Component(energy.CompRadioTx) <= 0 {
		t.Error("communication energy should still be charged over TCP")
	}
}

func TestTCPRemoteRefResult(t *testing.T) {
	p := testProgram(t)
	addr := startTCPServer(t, NewServer(p))
	remote, err := DialServer(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	c := New(ClientConfig{ID: "tcp-client", Prog: p, Server: remote, Channel: radio.Fixed{Cls: radio.Class4}, Strategy: StrategyR, Seed: 7})
	pr := newProfiler(p)
	tg := vecsumTarget()
	prof, err := pr.ProfileTarget(tg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Register(tg, prof); err != nil {
		t.Fatal(err)
	}
	args, err := tg.MakeArgs(c.VM, 64, rng.New(55))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Invoke(context.Background(), "App", "vecsum", args); err != nil {
		t.Fatal(err)
	}
}

func TestTCPCompiledBodyMatchesInProcess(t *testing.T) {
	p := testProgram(t)
	server := NewServer(p)
	addr := startTCPServer(t, server)
	remote, err := DialServer(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	got, gotSize, err := remote.CompiledBody(context.Background(), "App.helper", jit.Level2)
	if err != nil {
		t.Fatal(err)
	}
	want, wantSize, err := server.CompiledBody(context.Background(), "App.helper", jit.Level2)
	if err != nil {
		t.Fatal(err)
	}
	if gotSize != wantSize {
		t.Errorf("size %d != %d", gotSize, wantSize)
	}
	if len(got.Instrs) != len(want.Instrs) {
		t.Fatalf("instr count %d != %d", len(got.Instrs), len(want.Instrs))
	}
	for i := range got.Instrs {
		if got.Instrs[i] != want.Instrs[i] {
			t.Errorf("instr %d: %v != %v", i, got.Instrs[i], want.Instrs[i])
		}
	}
	if got.FrameWords != want.FrameWords || got.OptLevel != want.OptLevel {
		t.Error("metadata lost on the wire")
	}
}

func TestTCPErrorsPropagate(t *testing.T) {
	p := testProgram(t)
	addr := startTCPServer(t, NewServer(p))
	remote, err := DialServer(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	if _, _, _, err := remote.Execute(context.Background(), "c", "No", "such", nil, 0, 0); err == nil ||
		!strings.Contains(err.Error(), "no method") {
		t.Errorf("exec error = %v", err)
	}
	// The connection must remain usable after a server-side error.
	if _, _, err := remote.CompiledBody(context.Background(), "App.helper", jit.Level1); err != nil {
		t.Errorf("connection broken after error: %v", err)
	}
	if _, _, err := remote.CompiledBody(context.Background(), "No.Such", jit.Level1); err == nil {
		t.Error("unknown method should error")
	}
}

func TestEncodeDecodeCodeRoundtrip(t *testing.T) {
	p := testProgram(t)
	m := p.FindMethod("App", "work")
	code, _, err := jit.Compile(p, m, jit.Level3)
	if err != nil {
		t.Fatal(err)
	}
	enc := isa.EncodeCode(code)
	dec, err := isa.DecodeCode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Name != code.Name || dec.FrameWords != code.FrameWords || dec.OptLevel != code.OptLevel {
		t.Error("metadata changed")
	}
	for i := range code.Instrs {
		if dec.Instrs[i] != code.Instrs[i] {
			t.Fatalf("instr %d changed", i)
		}
	}
	// Corruption is detected.
	if _, err := isa.DecodeCode(enc[:len(enc)-2]); err == nil {
		t.Error("truncated code should fail to decode")
	}
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xFF
	if _, err := isa.DecodeCode(bad); err == nil {
		t.Error("bad magic should fail to decode")
	}
}

// --- Transport failure handling ---

// rawRoundTrip writes one frame over a raw connection and decodes the
// response's status byte and message.
func rawRoundTrip(t *testing.T, conn net.Conn, payload []byte) (byte, string) {
	t.Helper()
	if err := writeFrame(conn, payload); err != nil {
		t.Fatal(err)
	}
	resp, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	m := &wire{buf: resp}
	status := m.rdU8()
	msg := ""
	if status == statusFail {
		msg = m.rdStr()
	}
	return status, msg
}

// TestMalformedFramesGetFailureFrames: every malformed request is
// answered with a clean failure frame, and the connection stays
// usable afterwards.
func TestMalformedFramesGetFailureFrames(t *testing.T) {
	p := testProgram(t)
	addr := startTCPServer(t, NewServer(p))

	valid := &wire{}
	valid.u8(opCompile).u32(0).str("App.helper").u8(byte(jit.Level1))

	cases := []struct {
		name    string
		payload []byte
		wantMsg string
	}{
		{"empty frame", nil, "unknown op"},
		{"unknown op", []byte{0xEE}, "unknown op"},
		{"truncated exec session", []byte{opExec, 0, 0}, "truncated"},
		{"truncated exec strings", []byte{opExec, 0, 0, 0, 0, 0, 5, 'a'}, "truncated"},
		{"truncated compile", []byte{opCompile}, "truncated"},
		{"truncated hello", []byte{opHello, 0, 9}, "truncated"},
		{"exec huge bytes length", append([]byte{opExec, 0, 0, 0, 0, 0, 1, 'c', 0, 1, 'C', 0, 1, 'm'},
			0xFF, 0xFF, 0xFF, 0xFF), "truncated"},
		{"exec missing times", func() []byte {
			m := &wire{}
			m.u8(opExec).u32(0).str("c").str("App").str("work").bytes(nil)
			return m.buf
		}(), "truncated"},
		{"exec unknown session", func() []byte {
			m := &wire{}
			m.u8(opExec).u32(999).str("c").str("App").str("work").bytes(nil).f64(0).f64(0)
			return m.buf
		}(), "unknown session"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			status, msg := rawRoundTrip(t, conn, tc.payload)
			if status != statusFail {
				t.Fatalf("status = %d, want failure frame", status)
			}
			if !strings.Contains(msg, tc.wantMsg) {
				t.Errorf("failure %q does not mention %q", msg, tc.wantMsg)
			}
			// The connection survives the bad frame.
			if status, _ := rawRoundTrip(t, conn, valid.buf); status != statusOK {
				t.Error("connection unusable after a malformed frame")
			}
		})
	}
}

// TestOversizedInboundFrameDrained: a frame claiming more than
// maxFrame bytes is drained and answered with a failure frame instead
// of killing the connection.
func TestOversizedInboundFrameDrained(t *testing.T) {
	p := testProgram(t)
	addr := startTCPServer(t, NewServer(p))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	n := int64(maxFrame) + 1
	var hdr [5]byte
	hdr[0] = protocolVersion
	binary.BigEndian.PutUint32(hdr[1:], uint32(n))
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	// Stream the oversized payload; the reply may already be in
	// flight, so write concurrently with the read.
	writeErr := make(chan error, 1)
	go func() {
		_, err := io.CopyN(conn, zeroReader{}, n)
		writeErr <- err
	}()
	resp, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-writeErr; err != nil {
		t.Fatal(err)
	}
	m := &wire{buf: resp}
	if m.rdU8() != statusFail {
		t.Fatal("oversized frame should yield a failure frame")
	}
	if msg := m.rdStr(); !strings.Contains(msg, "exceeds") {
		t.Errorf("failure %q does not mention the size limit", msg)
	}
	// The connection survives.
	valid := &wire{}
	valid.u8(opCompile).u32(0).str("App.helper").u8(byte(jit.Level1))
	if status, _ := rawRoundTrip(t, conn, valid.buf); status != statusOK {
		t.Error("connection unusable after an oversized frame")
	}
}

type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

// TestOversizedRequestRejectedSendSide: the client refuses to send a
// frame over maxFrame before anything hits the wire; the error is a
// protocol error, not a connection loss, and the connection stays
// usable.
func TestOversizedRequestRejectedSendSide(t *testing.T) {
	p := testProgram(t)
	addr := startTCPServer(t, NewServer(p))
	remote, err := DialServer(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	big := make([]byte, maxFrame+1)
	_, _, _, err = remote.Execute(context.Background(), "c", "App", "work", big, 0, 0)
	var fse *FrameSizeError
	if !errors.As(err, &fse) {
		t.Fatalf("error %v, want FrameSizeError", err)
	}
	if !errors.Is(err, ErrProtocol) {
		t.Error("FrameSizeError should unwrap to ErrProtocol")
	}
	if errors.Is(err, radio.ErrConnectionLost) {
		t.Error("an oversized request is not a connection loss")
	}
	if _, _, err := remote.CompiledBody(context.Background(), "App.helper", jit.Level1); err != nil {
		t.Errorf("connection unusable after a rejected oversized request: %v", err)
	}
}

// TestMidCallResetReconnects: a connection reset mid-call is
// classified as radio.ErrConnectionLost and the next call reconnects
// transparently.
func TestMidCallResetReconnects(t *testing.T) {
	p := testProgram(t)
	s := NewServer(p)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		// First connection: answer the dial-time hello probe, then
		// swallow the next request and slam the door.
		conn, err := l.Accept()
		if err != nil {
			return
		}
		readFrame(conn)                                     //nolint:errcheck
		writeFrame(conn, (&wire{}).u8(statusOK).u32(0).buf) //nolint:errcheck
		readFrame(conn)                                     //nolint:errcheck
		conn.Close()
		// Later connections reach the real server.
		for {
			c2, err := l.Accept()
			if err != nil {
				return
			}
			go NewTCPServer(s, SessionConfig{}).serveConn(c2)
		}
	}()

	remote, err := DialServer(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	_, _, err = remote.CompiledBody(context.Background(), "App.helper", jit.Level1)
	if !errors.Is(err, radio.ErrConnectionLost) {
		t.Fatalf("mid-call reset classified as %v, want connection loss", err)
	}
	if _, _, err := remote.CompiledBody(context.Background(), "App.helper", jit.Level1); err != nil {
		t.Fatalf("reconnect after reset failed: %v", err)
	}
}

// TestRPCDeadlineOnStalledServer: a server that accepts but never
// responds trips the per-RPC deadline, classified as a loss.
func TestRPCDeadlineOnStalledServer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				// Answer the dial-time hello probe, then stall: read
				// forever, answer never.
				readFrame(conn)                                     //nolint:errcheck
				writeFrame(conn, (&wire{}).u8(statusOK).u32(0).buf) //nolint:errcheck
				io.Copy(io.Discard, conn)                           //nolint:errcheck
			}(conn)
		}
	}()

	remote, err := DialServer(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	remote.RPCTimeout = 100 * time.Millisecond
	start := time.Now()
	_, _, err = remote.CompiledBody(context.Background(), "App.helper", jit.Level1)
	if !errors.Is(err, radio.ErrConnectionLost) {
		t.Fatalf("stalled RPC classified as %v, want connection loss", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline took %v to fire", elapsed)
	}
}

// TestTCPServerGracefulShutdown: Close stops the accept loop with
// ErrServerClosed, closes live connections, and drains handlers.
func TestTCPServerGracefulShutdown(t *testing.T) {
	p := testProgram(t)
	ts := NewTCPServer(NewServer(p), SessionConfig{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ts.Serve(l) }()

	remote, err := DialServer(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	if _, _, err := remote.CompiledBody(context.Background(), "App.helper", jit.Level1); err != nil {
		t.Fatal(err)
	}

	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrServerClosed) {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
	// The live connection was shut: the next call is a loss.
	remote.DialRetries = 0
	remote.DialBackoff = 0
	if _, _, err := remote.CompiledBody(context.Background(), "App.helper", jit.Level1); !errors.Is(err, radio.ErrConnectionLost) {
		t.Errorf("call after shutdown = %v, want connection loss", err)
	}
	// Close is idempotent, and Serve after Close refuses.
	if err := ts.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := ts.Serve(l); !errors.Is(err, ErrServerClosed) {
		t.Errorf("Serve after Close = %v, want ErrServerClosed", err)
	}
}

// TestServerPanicBecomesFailureFrame: a request that panics the
// handler yields a failure frame and the connection survives.
func TestServerPanicBecomesFailureFrame(t *testing.T) {
	req := &wire{}
	req.u8(opExec).u32(0).str("c").str("App").str("work").bytes(nil).f64(0).f64(0)
	resp := safeHandle(context.Background(), req.buf, nil, nopRPCMetrics{}) // nil server: the session open panics
	m := &wire{buf: resp}
	if m.rdU8() != statusFail {
		t.Fatal("panic should produce a failure frame")
	}
	if msg := m.rdStr(); !strings.Contains(msg, "panic") {
		t.Errorf("failure %q does not mention the panic", msg)
	}
}
