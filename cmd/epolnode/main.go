// Command epolnode runs the distributed algorithm across genuine OS
// processes connected over TCP — the deployment analogue of the paper's
// MPI runs, with per-process data replication. Every process loads the
// same molecule file and participates as one rank.
//
// Start the root (rank 0), then the workers:
//
//	epolnode -listen :7777 -ranks 3 -in mol.pqr -threads 6
//	epolnode -connect host:7777 -rank 1 -ranks 3 -in mol.pqr -threads 6
//	epolnode -connect host:7777 -rank 2 -ranks 3 -in mol.pqr -threads 6
//
// The root prints the energy when all ranks finish. A single-machine
// demo with a generated molecule:
//
//	epolnode -listen :7777 -ranks 2 -gen 3000 &
//	epolnode -connect 127.0.0.1:7777 -rank 1 -ranks 2 -gen 3000
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"octgb/internal/cluster"
	"octgb/internal/engine"
	"octgb/internal/molecule"
	"octgb/internal/obs"
	"octgb/internal/surface"
)

func main() {
	var (
		listen  = flag.String("listen", "", "root mode: address to listen on (e.g. :7777)")
		connect = flag.String("connect", "", "worker mode: root address to connect to")
		rank    = flag.Int("rank", 0, "this worker's rank (workers only; root is rank 0)")
		ranks   = flag.Int("ranks", 2, "total number of ranks")
		in      = flag.String("in", "", "input molecule in PQR format (same file on every rank)")
		gen     = flag.Int("gen", 0, "generate a synthetic protein instead (same -gen/-seed on every rank)")
		seed    = flag.Int64("seed", 1, "generator seed")
		threads = flag.Int("threads", 1, "threads per rank (1 = pure distributed)")
		bornEps = flag.Float64("borneps", 0.9, "Born ε")
		epolEps = flag.Float64("epoleps", 0.9, "E_pol ε")
		timeout = flag.Duration("commtimeout", 30*time.Second, "failure-detection timeout: a rank silent this long is reported failed (same value on every rank; 0 disables detection and blocks forever)")
		obsAddr = flag.String("obs", "", "debug listener address (e.g. 127.0.0.1:6060) exposing /metrics, /debug/trace and /debug/pprof/*; empty disables instrumentation")
	)
	flag.Parse()

	mol, err := loadMolecule(*in, *gen, *seed)
	if err != nil {
		fatal(err)
	}
	pr := engine.NewProblem(mol, surface.Default())
	opts := engine.Options{Threads: *threads, BornEps: *bornEps, EpolEps: *epolEps}

	// -obs turns on instrumentation for this rank — engine phase
	// histograms, collective latency/bytes, heartbeat gaps, trace spans —
	// and serves them on a side listener so a cluster dashboard can scrape
	// every rank independently of the compute transport.
	var ob *obs.Observer
	if *obsAddr != "" {
		ob = obs.New()
		opts.Observe = ob
		if err := serveDebug(*obsAddr, ob); err != nil {
			fatal(err)
		}
	}

	// The transport logger surfaces mesh build failures — which worker
	// could not reach which peer — on the rank that saw them.
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "epolnode: "+format+"\n", args...)
	}
	tcpOpts := []cluster.TCPOption{cluster.WithLogger(logf), cluster.WithCommTimeout(*timeout)}
	if ob != nil {
		tcpOpts = append(tcpOpts, cluster.WithObserver(ob))
	}
	var comm cluster.Comm
	switch {
	case *listen != "":
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fatal(err)
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "epolnode: root waiting for %d workers on %s\n", *ranks-1, ln.Addr())
		comm, err = cluster.NewTCPRoot(ln, *ranks, tcpOpts...)
		if err != nil {
			fatal(err)
		}
	case *connect != "":
		comm, err = cluster.DialTCP(*connect, *rank, *ranks, tcpOpts...)
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("need -listen (root) or -connect (worker)"))
	}

	rep, err := engine.RunRank(comm, pr, opts)
	if err != nil {
		var rf cluster.ErrRankFailed
		if errors.As(err, &rf) {
			fmt.Fprintf(os.Stderr, "epolnode: rank %d failed (silent past %v)\n", rf.Rank, *timeout)
			if fd, ok := comm.(cluster.FailureDetector); ok {
				fmt.Fprintf(os.Stderr, "epolnode: liveness: %v\n", fd.AliveRanks())
			}
		}
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "epolnode: rank %d/%d done (wall local work only)\n", comm.Rank(), comm.Size())
	if comm.Rank() == 0 {
		fmt.Printf("molecule: %s (%d atoms)\nE_pol: %.6g kcal/mol\n", mol.Name, mol.N(), rep.Energy)
	}
}

// serveDebug binds the -obs listener and serves the observability
// endpoints in the background for the life of the process (the run exits
// when the computation does; no graceful drain is needed for a scrape
// target).
func serveDebug(addr string, ob *obs.Observer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("obs listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Handler(ob.Reg))
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = ob.Trace.WriteTrace(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	fmt.Fprintf(os.Stderr, "epolnode: observability on http://%s/metrics\n", ln.Addr())
	go func() { _ = srv.Serve(ln) }()
	return nil
}

func loadMolecule(in string, gen int, seed int64) (*molecule.Molecule, error) {
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return molecule.ReadPQR(f, in)
	}
	if gen <= 0 {
		gen = 2000
	}
	return molecule.GenerateProtein(fmt.Sprintf("protein_%d", gen), gen, seed), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "epolnode:", err)
	os.Exit(1)
}
