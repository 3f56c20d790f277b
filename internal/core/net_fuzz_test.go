package core

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"greenvm/internal/jit"
	"greenvm/internal/lang"
)

// fuzzServer is built once: compiling the test program per input would
// drown the fuzzer in setup work.
var (
	fuzzOnce sync.Once
	fuzzSrv  *sessionServer
)

func fuzzServerInstance() *sessionServer {
	fuzzOnce.Do(func() {
		p, err := lang.Compile(testAppSrc)
		if err != nil {
			panic(err)
		}
		fuzzSrv = newSessionServer(NewServer(p), SessionConfig{})
	})
	return fuzzSrv
}

// FuzzWireDecode throws arbitrary bytes at the frame reader, the wire
// readers and the server's request handler: none may panic, and the
// handler must always produce a decodable response frame. CI runs this
// for a short smoke window on every push.
func FuzzWireDecode(f *testing.F) {
	// Seed with well-formed requests so the fuzzer starts inside the
	// interesting part of the format.
	exec := &wire{}
	exec.u8(opExec).u32(0).str("fuzz").str("App").str("work").bytes([]byte{1, 2, 3}).f64(0).f64(1.5)
	f.Add(exec.buf)
	comp := &wire{}
	comp.u8(opCompile).u32(0).str("App.helper").u8(byte(jit.Level2))
	f.Add(comp.buf)
	hello := &wire{}
	hello.u8(opHello).str("fuzz-client")
	f.Add(hello.buf)
	f.Add([]byte{})
	f.Add([]byte{opExec, 0xFF, 0xFF})
	f.Add([]byte{0xEE, 0, 0, 0, 0})
	// A framed request (version byte + length + payload) seeds the
	// frame-level decoder, including a wrong-version header.
	var framed bytes.Buffer
	if err := writeFrame(&framed, comp.buf); err != nil {
		f.Fatal(err)
	}
	f.Add(framed.Bytes())
	wrongVer := append([]byte(nil), framed.Bytes()...)
	wrongVer[0] = protocolVersion + 1
	f.Add(wrongVer)

	f.Fuzz(func(t *testing.T, data []byte) {
		// The frame reader tolerates any input: it either decodes or
		// errors, never panics.
		readFrame(bytes.NewReader(data)) //nolint:errcheck

		// The raw field readers tolerate any input.
		m := &wire{buf: data}
		m.rdU8()
		m.rdU32()
		m.rdStr()
		m.rdBytes()
		m.rdF64()

		// The handler answers every request with a well-formed frame.
		resp := safeHandle(context.Background(), data, fuzzServerInstance(), nopRPCMetrics{})
		if len(resp) == 0 {
			t.Fatal("empty response frame")
		}
		out := &wire{buf: resp}
		switch out.rdU8() {
		case statusOK:
			// Valid requests produce op-specific payloads; decoding
			// them is exercised by the unit tests.
		case statusBusy:
			out.rdU32()
			if out.err != nil {
				t.Errorf("undecodable busy frame: %v", out.err)
			}
		case statusFail:
			if out.rdStr() == "" && out.err == nil {
				t.Error("failure frame with empty message")
			}
			if out.err != nil {
				t.Errorf("undecodable failure frame: %v", out.err)
			}
		default:
			t.Error("unknown status byte in response")
		}
	})
}
