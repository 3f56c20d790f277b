// Command mjserver runs the resource-rich execution and compilation
// server for an MJ application, speaking the core TCP protocol. A
// client in another process connects with core.DialServer and offloads
// potential methods to it — the paper's two-workstation prototype.
//
// Usage:
//
//	mjserver -listen :7033 app.{mj,mjc}
//	mjserver -listen :7033 -app mf          # serve a built-in benchmark
//	mjserver -listen :7033 -app mf -metrics :9033
//	mjserver -listen :7033 -app mf -workers 2 -queue 8
//
// -workers and -queue shape the admission control in front of the
// execution pool: requests beyond the worker pool wait in a bounded
// queue, and requests beyond the queue are shed with a busy error the
// clients price into their offload decisions.
//
// With -metrics the server additionally exposes its RPC metrics
// (requests, bytes, connections, recovered panics) over HTTP on the
// shared obs mux: Prometheus text at /metrics, a JSON snapshot at
// /metrics.json, and Go profiling under /debug/pprof/ — the same
// surface fleetsim -serve-metrics exposes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"greenvm/internal/apps"
	"greenvm/internal/bytecode"
	"greenvm/internal/core"
	"greenvm/internal/lang"
	"greenvm/internal/obs"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7033", "address to listen on")
	app := flag.String("app", "", "serve a built-in benchmark instead of a file")
	metrics := flag.String("metrics", "", "serve RPC metrics over HTTP on this address (/metrics, /metrics.json)")
	workers := flag.Int("workers", core.DefaultWorkers, "execution worker pool size (admission control)")
	queue := flag.Int("queue", core.DefaultQueueCap, "admission queue capacity; requests beyond it are shed busy")
	flag.Parse()
	cfg := core.SessionConfig{Workers: *workers, QueueCap: *queue}
	if err := run(*listen, *app, *metrics, cfg, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "mjserver:", err)
		os.Exit(1)
	}
}

func run(listen, app, metrics string, cfg core.SessionConfig, args []string) error {
	var prog *bytecode.Program
	var err error
	switch {
	case app != "":
		a := apps.ByName(app)
		if a == nil {
			return fmt.Errorf("unknown benchmark %q", app)
		}
		prog, err = a.FreshProgram()
	case len(args) == 1:
		var data []byte
		if data, err = os.ReadFile(args[0]); err != nil {
			return err
		}
		if strings.HasSuffix(args[0], ".mjc") {
			if prog, err = bytecode.Decode(data); err != nil {
				return err
			}
			if err = prog.Link(); err != nil {
				return err
			}
			err = prog.Verify()
		} else {
			prog, err = lang.Compile(string(data))
		}
	default:
		return fmt.Errorf("usage: mjserver [-listen addr] (-app NAME | file.{mj,mjc})")
	}
	if err != nil {
		return err
	}

	l, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	fmt.Printf("mjserver: serving %d classes, %d methods on %s\n",
		len(prog.Classes), len(prog.Methods), l.Addr())
	for _, m := range prog.PotentialMethods() {
		fmt.Printf("  potential: %s\n", m.QName())
	}

	// Graceful shutdown: on SIGINT/SIGTERM stop accepting, close live
	// connections and drain in-flight handlers before exiting.
	srv := core.NewTCPServer(core.NewServer(prog), cfg)
	if metrics != "" {
		collector := obs.NewRPCCollector(nil)
		srv.Metrics = collector
		ml, err := net.Listen("tcp", metrics)
		if err != nil {
			return err
		}
		fmt.Printf("mjserver: metrics on http://%s/metrics\n", ml.Addr())
		go http.Serve(ml, obs.HTTPHandler(collector.Registry(), obs.WithPprof())) //nolint:errcheck
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Println("mjserver: shutting down")
		srv.Close()
	}()
	if err := srv.Serve(l); !errors.Is(err, core.ErrServerClosed) {
		return err
	}
	return nil
}
