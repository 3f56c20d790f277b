package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"greenvm/internal/bytecode"
	"greenvm/internal/energy"
	"greenvm/internal/jit"
	"greenvm/internal/lang"
	"greenvm/internal/vm"
)

// replaySrc has offloadable methods whose callees depend on the input
// size, so the order in which the server first installs bodies depends
// on the order of the requests.
const replaySrc = `
class App {
  potential static int work(int n) {
    int s = 0;
    for (int i = 0; i < n; i = i + 1) { s = s + helper(i) % 1000; }
    return s;
  }
  static int helper(int x) { return x * x + 3 * x + 7; }

  potential static int mix(int n) {
    if (n > 40) { return big(n); }
    return small(n);
  }
  static int small(int n) { return n * 3 + helper(n); }
  static int big(int n) {
    int s = 1;
    for (int i = 0; i < n; i = i + 1) { s = (s * 31 + i) % 65521; }
    return s;
  }

  potential static int vecsum(int[] a) {
    int s = 0;
    for (int i = 0; i < a.length; i = i + 1) { s = s + a[i]; }
    return s;
  }
}
`

// forgetReplays empties the replay memo, so the next request runs for
// real.
func (s *Server) forgetReplays() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.replay = replayMemo{}
}

type replayReq struct {
	method string
	args   []byte
	estEnd energy.Seconds
}

// replayRequests builds an interleaved request sequence over all three
// methods at mixed sizes, with repeats, enough distinct work sizes to
// evict by entry count, and vecsum arrays large enough to evict by
// bytes; the early keys come back after they have been evicted.
func replayRequests(t *testing.T, p *bytecode.Program) []replayReq {
	t.Helper()
	v := vm.New(p, energy.MicroSPARCIIep())
	enc := func(method string, args ...vm.Slot) []byte {
		b, err := v.Heap.EncodeArgs(p.FindMethod("App", method), args)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	vec := func(n int) []byte {
		h, err := v.Heap.NewArray(bytecode.ElemInt, int64(n))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := v.Heap.SetElemI(h, int64(i), int64((i*7919)%1000)); err != nil {
				t.Fatal(err)
			}
		}
		return enc("vecsum", vm.RefSlot(h))
	}
	var reqs []replayReq
	add := func(method string, args []byte) {
		// Alternate sleeping and awake clients so both status-table
		// outcomes occur.
		reqs = append(reqs, replayReq{method, args, energy.Seconds(len(reqs)%2) * 10})
	}
	for round := 0; round < 2; round++ {
		for _, n := range []int{8, 64, 20, 90, 8, 64} {
			add("mix", enc("mix", vm.IntSlot(int32(n))))
			add("work", enc("work", vm.IntSlot(int32(n))))
			add("vecsum", vec(n))
		}
	}
	for n := 1; n <= replayMaxEntries+40; n++ {
		add("work", enc("work", vm.IntSlot(int32(n%97+n/97))))
		add("mix", enc("mix", vm.IntSlot(int32(n))))
	}
	for _, n := range []int{60000, 20, 70000, 64, 60000} {
		add("vecsum", vec(n))
		add("mix", enc("mix", vm.IntSlot(int32(n%100))))
	}
	return reqs
}

// TestServerReplayIsExact drives a replaying server and a reference
// server whose memo is emptied before every request, so it runs every
// request for real, through the same interleaved sequence. Every
// result, server time, queueing outcome and status-table row must be
// bit-identical, before and after eviction.
func TestServerReplayIsExact(t *testing.T) {
	p, err := lang.Compile(replaySrc)
	if err != nil {
		t.Fatal(err)
	}
	reqs := replayRequests(t, p)
	srv, ref := NewServer(p), NewServer(p)
	ctx := context.Background()
	// A body download before the first execution leaves helper's L3
	// body cached but never installed on the server VM.
	for _, s := range []*Server{srv, ref} {
		if _, _, err := s.CompiledBody(ctx, "App.helper", jit.Level3); err != nil {
			t.Fatal(err)
		}
	}
	hits, reruns := 0, 0
	seen := map[replayKey]bool{}
	for i, q := range reqs {
		k := replayKey{m: p.FindMethod("App", q.method), args: string(q.args)}
		_, hit := srv.replay.entries[k]
		if hit {
			hits++
		} else if seen[k] {
			reruns++ // evicted since its first run
		}
		seen[k] = true
		ref.forgetReplays()
		client := fmt.Sprintf("c%d", i%5)
		got, gotT, err := srv.Execute(ctx, client, "App", q.method, q.args, 0, q.estEnd)
		if err != nil {
			t.Fatalf("request %d (%s): %v", i, q.method, err)
		}
		want, wantT, err := ref.Execute(ctx, client, "App", q.method, q.args, 0, q.estEnd)
		if err != nil {
			t.Fatalf("reference request %d (%s): %v", i, q.method, err)
		}
		if !bytes.Equal(got, want) || math.Float64bits(float64(gotT)) != math.Float64bits(float64(wantT)) {
			t.Fatalf("request %d (%s, replayed %v): got (%x, %v), reference (%x, %v)",
				i, q.method, hit, got, gotT, want, wantT)
		}
		gs, ws := srv.Status(client), ref.Status(client)
		if gs.RequestTime != ws.RequestTime || gs.EstimatedEnd != ws.EstimatedEnd ||
			gs.Queued != ws.Queued || !bytes.Equal(gs.LastResult, ws.LastResult) {
			t.Fatalf("request %d: status row %+v, reference %+v", i, *gs, *ws)
		}
		if n, b := len(srv.replay.order), srv.replay.bytes; n > replayMaxEntries || b > replayMaxBytes || n != len(srv.replay.entries) {
			t.Fatalf("request %d: memo holds %d keys (%d ordered), %d bytes", i, len(srv.replay.entries), n, b)
		}
	}
	t.Logf("%d requests: %d replayed, %d run again after eviction", len(reqs), hits, reruns)
	if hits < len(reqs)/10 || reruns == 0 {
		t.Errorf("%d of %d requests replayed and %d run again after eviction; the sequence should exercise both",
			hits, len(reqs), reruns)
	}
}

// TestServerReplayConcurrent hammers one server from several
// goroutines with a few repeated keys, body downloads and status
// reads; every answer must match a serial reference run. Run it under
// -race.
func TestServerReplayConcurrent(t *testing.T) {
	p, err := lang.Compile(replaySrc)
	if err != nil {
		t.Fatal(err)
	}
	v := vm.New(p, energy.MicroSPARCIIep())
	type key struct {
		method string
		args   []byte
	}
	var keys []key
	for _, n := range []int{5, 50, 30, 75} {
		for _, method := range []string{"work", "mix"} {
			b, err := v.Heap.EncodeArgs(p.FindMethod("App", method), []vm.Slot{vm.IntSlot(int32(n))})
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, key{method, b})
		}
	}
	ctx := context.Background()
	// Both servers first run every key once, in the same order, so they
	// install the same bodies at the same addresses; the racing server
	// then forgets its replays and has to run each key again.
	ref, srv := NewServer(p), NewServer(p)
	type answer struct {
		res  []byte
		time energy.Seconds
	}
	want := make([]answer, len(keys))
	for i, k := range keys {
		ref.forgetReplays()
		res, st, err := ref.Execute(ctx, "ref", "App", k.method, k.args, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = answer{res, st}
		if _, _, err := srv.Execute(ctx, "warm", "App", k.method, k.args, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	srv.forgetReplays()

	const goroutines, perG = 6, 40
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := fmt.Sprintf("c%d", g)
			for i := 0; i < perG; i++ {
				k := (g*7 + i*3) % len(keys)
				res, st, err := srv.Execute(ctx, client, "App", keys[k].method, keys[k].args, 0, 1)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(res, want[k].res) || math.Float64bits(float64(st)) != math.Float64bits(float64(want[k].time)) {
					errs <- fmt.Errorf("goroutine %d request %d: got (%x, %v), want (%x, %v)", g, i, res, st, want[k].res, want[k].time)
					return
				}
				if i%10 == 0 {
					if _, _, err := srv.CompiledBody(ctx, "App.helper", jit.Level2); err != nil {
						errs <- err
						return
					}
					_ = srv.Status(client)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
