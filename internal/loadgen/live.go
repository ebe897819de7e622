package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"octgb/internal/fabric"
	"octgb/internal/molecule"
	"octgb/internal/serve"
)

// LiveOptions configures a wall-clock replay against a real server.
type LiveOptions struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8686".
	BaseURL string
	// Client is the HTTP client (default: http.DefaultClient).
	Client *http.Client
	// Speed dilates the trace's timeline: 2 replays arrivals twice as
	// fast, 0.5 half speed (default 1).
	Speed float64
}

// molKey names one molecule of the trace: a class and one of its
// variants.
type molKey struct{ class, variant int }

// liveCounters collects the run's outcome across request goroutines.
type liveCounters struct {
	admitted, completed, rejected, shed, failed, aborted, evicted atomic.Int64
	warmAt                                                        time.Time
	// mu guards lats, the latency of every completion inside the
	// measurement window (after warmAt), and shard, those completions per
	// serving shard keyed by the fabric router's WorkerHeader. shard stays
	// empty against a bare server, which never sets the header.
	mu    sync.Mutex
	lats  []time.Duration
	shard map[string]int64
}

// measure records one completion inside the measurement window.
func (ctr *liveCounters) measure(lat time.Duration, worker string) {
	ctr.mu.Lock()
	defer ctr.mu.Unlock()
	ctr.lats = append(ctr.lats, lat)
	if worker == "" {
		return
	}
	if ctr.shard == nil {
		ctr.shard = make(map[string]int64)
	}
	ctr.shard[worker]++
}

// RunLive replays the arrival sequence against a live server, open-loop:
// each arrival fires at its scheduled wall time whether or not earlier
// requests have answered. Stream sessions are closed-loop internally:
// frame n+1 posts when frame n returns.
func RunLive(spec *TraceSpec, reqs []Request, opt LiveOptions) (*Report, error) {
	if opt.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: live run needs a BaseURL")
	}
	if opt.Client == nil {
		opt.Client = http.DefaultClient
	}
	if opt.Speed <= 0 {
		opt.Speed = 1
	}

	// Molecules are deterministic per (class, variant) and generated
	// before the clock starts so construction cost never pollutes the
	// measured latencies.
	mols := make(map[molKey]serve.MoleculeJSON)
	for _, r := range reqs {
		k := molKey{r.Class, r.Variant}
		if _, ok := mols[k]; !ok {
			name := fmt.Sprintf("%s-c%d-v%d", spec.Name, r.Class, r.Variant)
			seed := spec.Seed + int64(r.Class)*1009 + int64(r.Variant)
			mols[k] = serve.FromMolecule(molecule.GenerateProtein(name, r.Atoms, seed))
		}
	}

	ctr := &liveCounters{}
	start := time.Now()
	// Warm-up is specified in trace time, so it dilates with Speed like
	// the arrival schedule does.
	ctr.warmAt = start.Add(time.Duration(spec.SLO.WarmupS / opt.Speed * float64(time.Second)))
	var wg sync.WaitGroup
	for _, r := range reqs {
		due := start.Add(time.Duration(float64(r.At) / opt.Speed))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(r Request) {
			defer wg.Done()
			fire(opt, ctr, mols[molKey{r.Class, r.Variant}], r)
		}(r)
	}
	wg.Wait()

	rep := &Report{
		Trace:             spec.Name,
		Offered:           int64(len(reqs)),
		Admitted:          ctr.admitted.Load(),
		Completed:         ctr.completed.Load(),
		RejectedQueueFull: ctr.rejected.Load(),
		Shed:              ctr.shed.Load(),
		Failed:            ctr.failed.Load(),
		AbortedSessions:   ctr.aborted.Load(),
		EvictedSessions:   ctr.evicted.Load(),
		DurationS:         time.Since(start).Seconds(),
	}
	span := time.Since(start)
	if w := time.Duration(spec.SLO.WarmupS / opt.Speed * float64(time.Second)); w > 0 && w < span {
		span -= w
		rep.WarmupS = w.Seconds()
	}
	rep.fillExactWindow(ctr.lats, span)
	if len(ctr.shard) > 0 && span > 0 {
		rep.PerShardQPS = make(map[string]float64, len(ctr.shard))
		for worker, n := range ctr.shard {
			rep.PerShardQPS[worker] = float64(n) / span.Seconds()
		}
	}
	return rep, nil
}

// fire dispatches one arrival and records its outcome.
func fire(opt LiveOptions, ctr *liveCounters, mol serve.MoleculeJSON, r Request) {
	switch r.Kind {
	case KindSweep:
		poses := make([]serve.PoseJSON, r.Poses)
		for i := range poses {
			poses[i] = serve.PoseJSON{T: [3]float64{float64(r.ID%7) + 0.25*float64(i), 0, 0}}
		}
		post(opt, ctr, "/v1/sweep", serve.SweepRequest{Ligand: mol, Poses: poses}, nil)
	case KindStream:
		runSession(opt, ctr, mol, r)
	default:
		post(opt, ctr, "/v1/energy", serve.EnergyRequest{Molecule: mol}, nil)
	}
}

// runSession is one closed-loop stream client: create, then frames
// back-to-back. A rejected create or frame ends the session and counts it
// aborted; an evicted session's frame ends it too and counts it evicted.
func runSession(opt LiveOptions, ctr *liveCounters, mol serve.MoleculeJSON, r Request) {
	var created serve.StreamCreateResponse
	if ok, _ := post(opt, ctr, "/v1/stream", serve.StreamCreateRequest{Molecule: mol}, &created); !ok {
		return
	}
	for f := 0; f < r.Frames; f++ {
		moves := make([]serve.MoveJSON, r.Movers)
		for i := range moves {
			a := mol.Atoms[i%len(mol.Atoms)]
			moves[i] = serve.MoveJSON{I: i % len(mol.Atoms), Pos: [3]float64{
				a[0] + 0.01*float64(f+1), a[1], a[2],
			}}
		}
		if ok, evicted := post(opt, ctr, "/v1/stream/"+created.SessionID+"/frame", serve.StreamFrameRequest{Moves: moves}, nil); !ok {
			if !evicted {
				ctr.aborted.Add(1)
			}
			return
		}
	}
	req, err := http.NewRequest(http.MethodDelete, opt.BaseURL+"/v1/stream/"+created.SessionID, nil)
	if err == nil {
		if resp, err := opt.Client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
}

// post sends one JSON request, classifies the outcome into the counters,
// and reports whether it succeeded and whether it was answered 404
// not_found, which only a stream frame is: the server evicted its session.
func post(opt LiveOptions, ctr *liveCounters, path string, body, out any) (ok, evicted bool) {
	buf, err := json.Marshal(body)
	if err != nil {
		ctr.failed.Add(1)
		return false, false
	}
	t0 := time.Now()
	resp, err := opt.Client.Post(opt.BaseURL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		ctr.failed.Add(1)
		return false, false
	}
	defer resp.Body.Close()
	lat := time.Since(t0)

	if resp.StatusCode == http.StatusOK {
		// A 200 whose body does not decode is a failure, not also an
		// admission and a completion.
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				ctr.failed.Add(1)
				return false, false
			}
		} else {
			io.Copy(io.Discard, resp.Body)
		}
		ctr.admitted.Add(1)
		ctr.completed.Add(1)
		if t0.After(ctr.warmAt) || time.Now().After(ctr.warmAt) {
			ctr.measure(lat, resp.Header.Get(fabric.WorkerHeader))
		}
		return true, false
	}

	var e serve.ErrorResponse
	_ = json.NewDecoder(resp.Body).Decode(&e)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests && e.Error == "shed_load":
		ctr.shed.Add(1)
	case resp.StatusCode == http.StatusTooManyRequests:
		ctr.rejected.Add(1)
	case resp.StatusCode == http.StatusNotFound && e.Error == "not_found":
		ctr.evicted.Add(1)
		return false, true
	default:
		ctr.failed.Add(1)
	}
	return false, false
}
