package obs

import (
	"context"

	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"greenvm/internal/core"
	"greenvm/internal/jit"
	"greenvm/internal/lang"
)

const rpcTestSrc = `
class App {
  potential static int work(int n) {
    int s = 0;
    for (int i = 0; i < n; i = i + 1) { s = s + helper(i) % 1000; }
    return s;
  }
  static int helper(int x) { return x * x + 3 * x + 7; }
}
`

// startObservedServer runs a metered TCPServer on loopback.
func startObservedServer(t *testing.T) (addr string, srv *core.TCPServer, col *RPCCollector) {
	t.Helper()
	prog, err := lang.Compile(rpcTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	srv = core.NewTCPServer(core.NewServer(prog), core.SessionConfig{})
	col = NewRPCCollector(nil)
	srv.Metrics = col
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck // returns on Close
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String(), srv, col
}

// TestRPCMetricsEndToEnd drives real RPCs through a metered server
// and client, then scrapes the server's registry over HTTP — the
// mjserver -metrics wiring, under test.
func TestRPCMetricsEndToEnd(t *testing.T) {
	addr, srv, serverCol := startObservedServer(t)

	remote, err := core.DialServer(addr)
	if err != nil {
		t.Fatal(err)
	}
	clientCol := NewRPCCollector(nil)
	remote.Metrics = clientCol

	// One successful compile RPC and one failing exec RPC (unknown
	// method → failure frame; the connection stays up).
	if _, _, err := remote.CompiledBody(context.Background(), "App.helper", jit.Level1); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := remote.Execute(context.Background(), "c", "App", "nope", nil, 0, 0); err == nil {
		t.Fatal("exec of an unknown method should fail")
	}
	remote.Close()
	srv.Close() // drains handlers: ConnClosed has fired

	// Both sides agree on the request ledger.
	for side, col := range map[string]*RPCCollector{"server": serverCol, "client": clientCol} {
		snap := col.Registry().Snapshot()
		if v := counterValue(t, snap, "rpc_requests_total",
			map[string]string{"op": "compile", "status": "ok"}); v != 1 {
			t.Errorf("%s: compile ok requests %g, want 1", side, v)
		}
		if v := counterValue(t, snap, "rpc_requests_total",
			map[string]string{"op": "exec", "status": "fail"}); v != 1 {
			t.Errorf("%s: exec fail requests %g, want 1", side, v)
		}
		if v := counterValue(t, snap, "rpc_request_bytes_total",
			map[string]string{"op": "compile"}); v <= 0 {
			t.Errorf("%s: no compile request bytes", side)
		}
	}
	serverSnap := serverCol.Registry().Snapshot()
	if v := counterValue(t, serverSnap, "rpc_connections_total", map[string]string{}); v != 1 {
		t.Errorf("connections %g, want 1", v)
	}
	if v := counterValue(t, serverSnap, "rpc_connections_active", map[string]string{}); v != 0 {
		t.Errorf("active connections %g after close, want 0", v)
	}

	// Scrape over HTTP: Prometheus text and the JSON snapshot.
	ts := httptest.NewServer(Handler(serverCol.Registry()))
	defer ts.Close()

	text := httpGet(t, ts.URL+"/metrics")
	for _, want := range []string{
		"# TYPE rpc_requests_total counter",
		`rpc_requests_total{op="compile",status="ok"} 1`,
		`rpc_requests_total{op="exec",status="fail"} 1`,
		"rpc_connections_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
	var snap struct {
		Metrics []struct {
			Name string `json:"name"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, ts.URL+"/metrics.json")), &snap); err != nil {
		t.Fatalf("/metrics.json does not parse: %v", err)
	}
	found := false
	for _, m := range snap.Metrics {
		if m.Name == "rpc_requests_total" {
			found = true
		}
	}
	if !found {
		t.Error("/metrics.json lacks rpc_requests_total")
	}
}

// TestRPCCollectorDirectCounters covers the paths the end-to-end run
// doesn't reach: recovered panics, oversized frames, reconnects and
// deadline hits.
func TestRPCCollectorDirectCounters(t *testing.T) {
	col := NewRPCCollector(nil)
	col.PanicRecovered()
	col.OversizedFrame()
	col.Reconnect()
	col.Reconnect()
	col.DeadlineHit()
	snap := col.Registry().Snapshot()
	none := map[string]string{}
	if v := counterValue(t, snap, "rpc_panics_recovered_total", none); v != 1 {
		t.Errorf("panics %g, want 1", v)
	}
	if v := counterValue(t, snap, "rpc_oversized_frames_total", none); v != 1 {
		t.Errorf("oversized %g, want 1", v)
	}
	if v := counterValue(t, snap, "rpc_reconnects_total", none); v != 2 {
		t.Errorf("reconnects %g, want 2", v)
	}
	if v := counterValue(t, snap, "rpc_deadline_hits_total", none); v != 1 {
		t.Errorf("deadline hits %g, want 1", v)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	return string(body)
}
