package core

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"

	"greenvm/internal/energy"
	"greenvm/internal/isa"
	"greenvm/internal/jit"
	"greenvm/internal/radio"
	"greenvm/internal/vm"
)

// waitQueued spins until the sessionServer's waiting count reaches n
// (the enqueue happens in another goroutine).
func waitQueued(t *testing.T, ss *sessionServer, n int) {
	t.Helper()
	for i := 0; i < 1e7; i++ {
		ss.mu.Lock()
		w := ss.waiting
		ss.mu.Unlock()
		if w == n {
			return
		}
		runtime.Gosched()
	}
	t.Fatalf("waiting count never reached %d", n)
}

// TestSessionAdmissionShedsWhenFull: with one worker and a one-slot
// queue, the third concurrent request is shed with a typed BusyError
// carrying the queue depth.
func TestSessionAdmissionShedsWhenFull(t *testing.T) {
	p := testProgram(t)
	ss := newSessionServer(NewServer(p), SessionConfig{Workers: 1, QueueCap: 1})
	if err := ss.acquire(nil, 1); err != nil {
		t.Fatalf("first request should grab the free worker: %v", err)
	}
	granted := make(chan error, 1)
	go func() { granted <- ss.acquire(context.Background(), 2) }()
	waitQueued(t, ss, 1)

	err := ss.acquire(context.Background(), 3)
	if !errors.Is(err, ErrServerBusy) {
		t.Fatalf("third request got %v, want a busy error", err)
	}
	var busy *BusyError
	if !errors.As(err, &busy) || busy.QueueDepth != 1 {
		t.Fatalf("busy error %v should carry queue depth 1", err)
	}

	ss.release() // hands the worker to the queued request
	if err := <-granted; err != nil {
		t.Fatalf("queued request should be granted on release: %v", err)
	}
	ss.release()

	st := ss.stats()
	if st.Shed != 1 || st.MaxQueueDepth != 1 {
		t.Errorf("stats %+v, want Shed=1 MaxQueueDepth=1", st)
	}
}

// TestSessionAdmissionRoundRobin: a session with a deep queue cannot
// starve others — grants rotate across sessions, one per turn.
func TestSessionAdmissionRoundRobin(t *testing.T) {
	p := testProgram(t)
	ss := newSessionServer(NewServer(p), SessionConfig{Workers: 1, QueueCap: 4})
	if err := ss.acquire(nil, 1); err != nil {
		t.Fatal(err)
	}
	grants := make(chan string, 3)
	enqueue := func(tag string, sid uint32, depth int) {
		go func() {
			if err := ss.acquire(context.Background(), sid); err != nil {
				grants <- "err:" + err.Error()
				return
			}
			grants <- tag
		}()
		waitQueued(t, ss, depth)
	}
	enqueue("a1", 10, 1)
	enqueue("a2", 10, 2)
	enqueue("b1", 20, 3)

	want := []string{"a1", "b1", "a2"} // rotation: a, b, a — not a, a, b
	for i, w := range want {
		ss.release()
		if got := <-grants; got != w {
			t.Fatalf("grant %d went to %q, want %q", i, got, w)
		}
	}
	ss.release()
}

// TestSessionAdmissionCancelledWaiter: a waiter whose context dies
// leaves the queue, and the rotation forgets its session.
func TestSessionAdmissionCancelledWaiter(t *testing.T) {
	p := testProgram(t)
	ss := newSessionServer(NewServer(p), SessionConfig{Workers: 1, QueueCap: 4})
	if err := ss.acquire(nil, 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	waited := make(chan error, 1)
	go func() { waited <- ss.acquire(ctx, 2) }()
	waitQueued(t, ss, 1)
	cancel()
	if err := <-waited; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v", err)
	}
	waitQueued(t, ss, 0)
	ss.release()
	// The worker must be free again: a fresh request is granted at once.
	if err := ss.acquire(nil, 3); err != nil {
		t.Fatalf("post-cancel request should be granted: %v", err)
	}
	ss.release()
}

// TestBusyOverTCP: an admission rejection crosses the wire as a
// statusBusy frame and comes back as a BusyError with the depth — and
// the connection survives it.
func TestBusyOverTCP(t *testing.T) {
	p := testProgram(t)
	srv := NewTCPServer(NewServer(p), SessionConfig{Workers: 1, QueueCap: -1})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck
	defer srv.Close()

	remote, err := DialServer(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	// Serialize arguments for App.work as a client would.
	m := p.FindMethod("App", "work")
	v := vm.New(p, energy.MicroSPARCIIep())
	argBytes, err := v.Heap.EncodeArgs(m, []vm.Slot{vm.IntSlot(150)})
	if err != nil {
		t.Fatal(err)
	}
	// Pin the single worker so the RPC is shed.
	ss := srv.s
	if err := ss.acquire(nil, 999); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = remote.Execute(context.Background(), "c", "App", "work", argBytes, 0, 0)
	var busy *BusyError
	if !errors.Is(err, ErrServerBusy) || !errors.As(err, &busy) {
		t.Fatalf("shed RPC returned %v, want a BusyError", err)
	}
	if busy.QueueDepth != 0 {
		t.Errorf("queue depth %d over a no-queue server, want 0", busy.QueueDepth)
	}

	// Release the worker: the same connection serves the retry.
	ss.release()
	if _, _, _, err := remote.Execute(context.Background(), "c", "App", "work", argBytes, 0, 0); err != nil {
		t.Fatalf("retry after the busy reply failed: %v", err)
	}
}

// TestProtocolVersionMismatch is the table-driven handshake check:
// frames stamped with a foreign protocol version are rejected with a
// failure frame naming both versions, and the connection is closed.
func TestProtocolVersionMismatch(t *testing.T) {
	p := testProgram(t)
	srv := NewTCPServer(NewServer(p), SessionConfig{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck
	defer srv.Close()

	for _, tc := range []struct {
		name string
		ver  byte
	}{
		{"older peer", protocolVersion - 1},
		{"newer peer", protocolVersion + 1},
		{"version zero", 0},
		{"garbage", 0xEE},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			payload := (&wire{}).u8(opHello).str("old-client").buf
			hdr := make([]byte, 5)
			hdr[0] = tc.ver
			binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
			if _, err := conn.Write(append(hdr, payload...)); err != nil {
				t.Fatal(err)
			}
			resp, err := readFrame(conn)
			if err != nil {
				t.Fatalf("the server should answer with a failure frame before closing: %v", err)
			}
			out := &wire{buf: resp}
			if st := out.rdU8(); st != statusFail {
				t.Fatalf("status %d, want failure", st)
			}
			msg := out.rdStr()
			if !strings.Contains(msg, "version mismatch") {
				t.Errorf("failure %q does not name the mismatch", msg)
			}
			// The connection must be closed after the rejection.
			if _, err := readFrame(conn); err == nil {
				t.Error("connection still open after a version rejection")
			}
		})
	}

	// Control: a correctly versioned hello on a fresh connection works.
	remote, err := DialServer(l.Addr().String())
	if err != nil {
		t.Fatalf("same-version dial failed: %v", err)
	}
	remote.Close()
}

// TestDialVersionMismatch: the dialer's probe surfaces a *VersionError
// when the server speaks a different version.
func TestDialVersionMismatch(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		readFrame(conn) //nolint:errcheck
		payload := (&wire{}).u8(statusOK).u32(0).buf
		hdr := make([]byte, 5)
		hdr[0] = protocolVersion + 1
		binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
		conn.Write(append(hdr, payload...)) //nolint:errcheck
		io.Copy(io.Discard, conn)           //nolint:errcheck
	}()

	_, err = DialServer(l.Addr().String())
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("dial against a wrong-version server returned %v, want a *VersionError", err)
	}
	if ve.Got != protocolVersion+1 {
		t.Errorf("version error reports peer v%d, want v%d", ve.Got, protocolVersion+1)
	}
	if !errors.Is(err, ErrProtocol) {
		t.Error("VersionError should unwrap to ErrProtocol")
	}
}

// busyRemote rejects every execution with a BusyError and passes
// compilation through.
type busyRemote struct {
	inner Remote
	depth int
	calls int
}

func (b *busyRemote) Execute(ctx context.Context, clientID, class, method string, argBytes []byte,
	reqTime, estEnd energy.Seconds) ([]byte, energy.Seconds, bool, error) {
	b.calls++
	return nil, 0, false, &BusyError{QueueDepth: b.depth}
}

func (b *busyRemote) CompiledBody(ctx context.Context, qname string, level jit.Level) (*isa.Code, int, error) {
	return b.inner.CompiledBody(ctx, qname, level)
}

// TestBusyPricedIntoOffloadDecision: a shed exchange falls back to
// local execution without retries or breaker strikes, bumps the
// busy-rate estimate, and inflates the remote-energy estimate so
// adaptive policies steer away from an overloaded server.
func TestBusyPricedIntoOffloadDecision(t *testing.T) {
	p := testProgram(t)
	c := newTestClient(t, p, StrategyR, radio.Fixed{Cls: radio.Class4}, workTarget())
	busy := &busyRemote{inner: c.Server, depth: 7}
	c.Server = busy
	prof := c.profiles[p.FindMethod("App", "work")]
	base := c.RemoteEnergy(prof, 150, float64(c.Link.Chip.TxPower(radio.Class4)))

	args := []vm.Slot{vm.IntSlot(150)}
	var lastRate float64
	for i := 1; i <= 3; i++ {
		res, err := c.Invoke(context.Background(), "App", "work", args)
		if err != nil {
			t.Fatalf("invoke %d: a shed invocation must fall back locally, got %v", i, err)
		}
		if res.I == 0 {
			t.Fatalf("invoke %d returned a zero result", i)
		}
		if c.Stats.Sheds != i {
			t.Fatalf("after %d busy replies Stats.Sheds = %d", i, c.Stats.Sheds)
		}
		if r := c.busyRates[""]; r <= lastRate {
			t.Fatalf("busy rate %v did not grow past %v", r, lastRate)
		} else {
			lastRate = r
		}
	}
	if busy.calls != 3 {
		t.Errorf("server saw %d calls, want 3 (busy replies are never retried)", busy.calls)
	}
	if c.Stats.Retries != 0 || c.Stats.Fallbacks != 3 {
		t.Errorf("retries=%d fallbacks=%d, want 0/3: busy is not a connection loss",
			c.Stats.Retries, c.Stats.Fallbacks)
	}
	if c.Stats.LinkDowns != 0 {
		t.Errorf("busy replies tripped the breaker %d times", c.Stats.LinkDowns)
	}

	inflated := c.RemoteEnergy(prof, 150, float64(c.Link.Chip.TxPower(radio.Class4)))
	if inflated <= base {
		t.Errorf("remote estimate %v not inflated over %v after sheds", inflated, base)
	}

	// Successful exchanges decay the estimate back down.
	c.noteRemoteSuccess()
	if c.busyRates[""] >= lastRate {
		t.Errorf("busy rate %v did not decay after a success", c.busyRates[""])
	}
}
