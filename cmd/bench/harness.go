package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"octgb/internal/molecule"
	"octgb/internal/obs"
)

// workloadNames lists the workloads in the order `--workload all` runs them.
// BENCHMARK.json names three of them: the benchmark driver's time limit
// covers about seventy 30-second runs, and a run that short does not
// outlast the host's interference bursts, so dock_sweep — the workload whose
// layers cold_solve also exercises — is run by hand, not by the driver.
var workloadNames = []string{"cold_solve", "warm_serve", "dock_sweep", "stream_md"}

// setupRepeats is how often a pass sets the system up: the median of the
// repeats is setup_s, and the last set-up is the one measured on.
const setupRepeats = 3

// refTol is the relative tolerance between a program output and the
// harness's library reference for the same input: the two differ only in
// summation order (thread count, rank count, transport), never in which
// interactions are evaluated.
const refTol = 1e-9

// naiveTol is the paper's accuracy claim: the treecode energy stays within
// 1 % of the exact quadratic sum.
const naiveTol = 0.01

// sizes are the input sizes of the four workloads and the ops one round of
// each drives. The full sizes are the benchmark; tiny is the seconds-long
// smoke the package test runs.
type sizes struct {
	coldAtoms, coldDeck                         int
	warmAtoms, warmKeys                         int
	dockRec, dockLig, dockPool, dockPosesPerReq int
	dockRequests                                int
	streamAtoms, streamFrames, streamMovers     int
	// roundOps is the main ops of one round, all callers together: whole
	// cycles of the deck, the key set and the request list, and one whole
	// session per caller.
	roundOps map[string]int
	// rounds fixes the rounds per pass; 0 runs rounds until the measured
	// seconds are used up.
	rounds int
	probeN int // repeats of each timed layer probe
}

func sizesFor(scale string, p int) (sizes, error) {
	switch scale {
	case "full":
		return sizes{
			coldAtoms: 4000, coldDeck: 3,
			warmAtoms: 2500, warmKeys: 4,
			dockRec: 1500, dockLig: 300, dockPool: 32, dockPosesPerReq: 8, dockRequests: 16,
			streamAtoms: 3000, streamFrames: 72, streamMovers: 10,
			roundOps: map[string]int{"cold_solve": 3, "warm_serve": 120, "dock_sweep": 2 * p, "stream_md": 72 * p},
			probeN:   3,
		}, nil
	case "tiny":
		return sizes{
			coldAtoms: 300, coldDeck: 2,
			warmAtoms: 300, warmKeys: 2,
			dockRec: 300, dockLig: 60, dockPool: 4, dockPosesPerReq: 2, dockRequests: 2,
			streamAtoms: 300, streamFrames: 6, streamMovers: 3,
			roundOps: map[string]int{"cold_solve": 2, "warm_serve": 8, "dock_sweep": 2, "stream_md": 6 * p},
			rounds:   1,
			// Millisecond probes need many repeats for a steady median: at 9
			// the waterfall self-check left its band once in a hundred runs.
			probeN: 21,
		}, nil
	}
	return sizes{}, fmt.Errorf("unknown scale %q (want full or tiny)", scale)
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	p       int
	sz      sizes
}

// slice is a share of the measured seconds.
func (c *config) slice(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

// opRec is one operation as a closed-loop caller saw it. Main operations
// are what the workload is named for (solve, request, sweep, frame) and
// feed the latency metrics; auxiliary ones (session create and close) count
// toward attempted/failed and wall time only.
type opRec struct {
	start  time.Time
	dur    time.Duration
	aux    bool
	work   int       // work units a main op completed (1, or poses per sweep)
	key    int       // input identity, resolved by workload.reference
	vals   []float64 // energies the program returned
	failed string    // transport or status failure; "" when the op completed

	// Server-reported detail, used by the traced pass only.
	queueMS, surfaceMS, prepareMS, evalMS float64
	hit                                   bool
	worker                                string
	batchRequests, batchPoses             int
}

// workload is one closed-loop scenario. A value is set up once, driven one
// or more times, verified, and closed.
type workload interface {
	// setup boots the system under test on inputs generated from the seed
	// and warms it until the measured phase sees steady state.
	setup() error
	// drive runs one round: `ways` concurrent closed-loop callers (for the
	// library workload, one caller solving on `ways` cores) that together
	// complete `ops` main operations.
	drive(ways, ops int, sp *spanner) []opRec
	// reference returns the harness's library reference values for the
	// given input keys.
	reference(keys []int) (map[int][]float64, error)
	// validity returns the run-validity checks that failed on recs.
	validity(recs []opRec) []string
	// layers adds the workload-specific per-layer metrics of a traced drive.
	layers(m *metricSet, recs []opRec)
	// probeInput is the molecule the layer probes replay: the workload's
	// representative input.
	probeInput() probeInput
	close()
}

func newWorkload(name string, cfg *config, ob *obs.Observer) workload {
	switch name {
	case "cold_solve":
		return newColdSolve(cfg, ob)
	case "warm_serve":
		return newWarmServe(cfg, ob)
	case "dock_sweep":
		return newDockSweep(cfg, ob)
	case "stream_md":
		return newStreamMD(cfg, ob)
	}
	panic("bench: unknown workload " + name)
}

// spanner records harness-side spans: one "op:" span per operation with a
// "stage:" child per call the harness made on its behalf, so every stage
// span's root is its op span. A nil spanner records nothing.
type spanner struct{ tr *obs.Tracer }

type stage struct {
	name  string
	start time.Time
	dur   time.Duration
}

func (s *spanner) op(name string, tid int, start time.Time, dur time.Duration, stages ...stage) {
	if s == nil {
		return
	}
	id := s.tr.NextID()
	for _, st := range stages {
		s.tr.Record("stage:"+st.name, id, tid, st.start, st.dur)
	}
	s.tr.RecordID(id, "op:"+name, 0, tid, start, dur)
}

// bootRepeated sets a workload up `repeats` times, closing all but the last,
// and returns that one, still booted, with each repeat's set-up time.
func bootRepeated(name string, cfg *config, ob *obs.Observer, repeats int) (workload, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		w := newWorkload(name, cfg, ob)
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == repeats-1 {
			return w, times, nil
		}
		w.close()
	}
}

// round is one measured round: a fixed number of ops, so every round of a
// workload does the same work on the same inputs, and what it cost.
type round struct {
	recs    []opRec
	wall    time.Duration
	allocMB float64 // Go heap allocated
}

// measureRounds drives rounds back to back for `budget` (at least one; on
// the count-bound tiny scale exactly cfg.sz.rounds). Another round starts
// while at least half a round's time is left.
func measureRounds(w workload, name string, cfg *config, budget time.Duration, sp *spanner) []round {
	deadline := time.Now().Add(budget)
	var rounds []round
	for {
		before := procSnapshot()
		start := time.Now()
		recs := w.drive(cfg.p, cfg.sz.roundOps[name], sp)
		r := round{recs: recs, wall: time.Since(start)}
		after := procSnapshot()
		r.allocMB = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1e6
		rounds = append(rounds, r)
		if cfg.sz.rounds > 0 {
			if len(rounds) >= cfg.sz.rounds {
				return rounds
			}
		} else if time.Until(deadline) < r.wall/2 {
			return rounds
		}
	}
}

func allRecs(rounds []round) []opRec {
	var all []opRec
	for i := range rounds {
		all = append(all, rounds[i].recs...)
	}
	return all
}

// steadyHalf is the mean of the tightest majority of per-round values: of
// every run of n/2+1 neighbours in sorted order, the one spanning the
// smallest range. Every round does the same work, so the rounds differ only
// by what the host did to them, and on the shared two-core reference box
// that has three levels: a sustained one that repeats within a percent and
// holds most of the time, a boost a fifth faster that lasts seconds, and
// interference bursts up to 40 % slower that last tens of seconds. The
// sustained level is where the values crowd, which is what this estimator
// finds; a mean over the fastest rounds swings with how much boost a run
// happened to catch (a 12-15 % quartile spread between identical runs on a
// recorded noise series, against 1-2 % for this), and a plain median drifts
// toward a boost or a burst as it fills the run, where this stays put until
// the sustained level loses its majority. Past that only run length helps.
func steadyHalf(perRound []float64) float64 {
	s := append([]float64(nil), perRound...)
	sort.Float64s(s)
	k := len(s)/2 + 1
	lo := 0
	for i := 1; i+k <= len(s); i++ {
		if s[i+k-1]-s[i] < s[lo+k-1]-s[lo] {
			lo = i
		}
	}
	sum := 0.0
	for _, v := range s[lo : lo+k] {
		sum += v
	}
	return sum / float64(k)
}

// endToEndPass measures one workload with tracing off. The measured
// seconds are spent on identical rounds of P closed-loop callers; every
// metric is computed per round and reported as the mean over the tightest
// majority of the rounds.
func endToEndPass(name string, cfg *config) (*passResult, error) {
	w, setups, err := bootRepeated(name, cfg, nil, setupRepeats)
	if err != nil {
		return nil, err
	}
	defer w.close()

	rounds := measureRounds(w, name, cfg, cfg.slice(1), nil)
	all := allRecs(rounds)
	res := &passResult{Metrics: newMetricSet()}
	if err := verify(w, all, res); err != nil {
		return nil, err
	}
	res.Invalid = append(res.Invalid, w.validity(all)...)

	var p50, perSec, allocMB []float64
	ops := 0
	for i := range rounds {
		r := &rounds[i]
		lat, work := mainOps(r.recs)
		n := float64(work)
		p50 = append(p50, median(lat))
		perSec = append(perSec, n/r.wall.Seconds())
		allocMB = append(allocMB, r.allocMB/n)
		ops += len(lat)
		fmt.Printf("round %d: ops=%d wall=%.3fs op_ms_p50=%.4f work_per_s=%.4f alloc_mb_per_work=%.4f\n",
			i, len(lat), r.wall.Seconds(), p50[i], perSec[i], allocMB[i])
	}
	m := res.Metrics
	m.set("setup_s", "s", median(setups), len(setups))
	m.set("op_ms_p50", "ms", steadyHalf(p50), ops)
	m.set("work_per_s", "1/s", steadyHalf(perSec), ops)
	m.set("alloc_mb_per_work", "MB", steadyHalf(allocMB), ops)
	res.finish()
	return res, nil
}

// tracedPass measures the per-layer metrics: untraced baseline rounds on a
// system booted with observation off, traced rounds on one booted with it
// on (the difference is the tracing overhead), then the layer probes on the
// workload's representative input.
func tracedPass(name string, cfg *config, ob *obs.Observer) (*passResult, error) {
	base, _, err := bootRepeated(name, cfg, nil, 1)
	if err != nil {
		return nil, err
	}
	baseRecs := allRecs(measureRounds(base, name, cfg, cfg.slice(0.25), nil))
	base.close()

	w, _, err := bootRepeated(name, cfg, ob, 1)
	if err != nil {
		return nil, err
	}
	defer w.close()
	sp := &spanner{tr: ob.Trace}
	p0 := procSnapshot()
	start := time.Now()
	recs := allRecs(measureRounds(w, name, cfg, cfg.slice(0.5), sp))
	wall := time.Since(start)
	p1 := procSnapshot()
	// Both systems were set up from the same seed, so one set of references
	// serves the baseline's outputs and the traced ones.
	res := &passResult{Metrics: newMetricSet()}
	if err := verify(w, append(append([]opRec(nil), baseRecs...), recs...), res); err != nil {
		return nil, err
	}
	res.Invalid = append(res.Invalid, w.validity(recs)...)

	m := res.Metrics
	lat, work := mainOps(recs)
	baseLat, _ := mainOps(baseRecs)
	sort.Float64s(lat)
	m.set("op.samples", "count", float64(len(lat)), len(lat))
	m.set("op.ms_p50", "ms", quantile(lat, 0.50), len(lat))
	m.set("op.ms_p90", "ms", quantile(lat, 0.90), len(lat))
	m.set("op.ms_p99", "ms", quantile(lat, 0.99), len(lat))
	m.set("op.ms_max", "ms", quantile(lat, 1), len(lat))
	m.set("obs.trace_overhead", "ratio", quantile(lat, 0.5)/median(baseLat)-1, len(lat))
	procMetrics(m, p0, p1, wall, work, cfg.p)
	w.layers(m, recs)
	if err := probeLayers(m, w.probeInput(), cfg, ob, sp, res); err != nil {
		return nil, err
	}
	if res.Metrics, err = ordered(m); err != nil {
		return nil, err
	}
	res.finish()
	return res, nil
}

// mainOps returns the latencies (ms) of the completed main operations and
// the work units they did.
func mainOps(recs []opRec) (lat []float64, work int) {
	for i := range recs {
		r := &recs[i]
		if r.aux || r.failed != "" {
			continue
		}
		lat = append(lat, ms(r.dur))
		work += r.work
	}
	return lat, work
}

// verify checks every recorded operation against the library reference and
// adds the counts to res. An operation fails on a transport or status
// error, a non-finite or non-negative energy, or a mismatch beyond refTol.
func verify(w workload, recs []opRec, res *passResult) error {
	seen := map[int]bool{}
	var keys []int
	for i := range recs {
		if r := &recs[i]; r.failed == "" && len(r.vals) > 0 && !seen[r.key] {
			seen[r.key] = true
			keys = append(keys, r.key)
		}
	}
	sort.Ints(keys)
	ref, err := w.reference(keys)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	for i := range recs {
		r := &recs[i]
		res.Attempted++
		if r.failed != "" || (len(r.vals) > 0 && !matches(r.vals, ref[r.key])) {
			res.Failed++
		}
	}
	return nil
}

func matches(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i, g := range got {
		if math.IsNaN(g) || math.IsInf(g, 0) || g >= 0 {
			return false
		}
		if math.Abs(g-want[i]) > refTol*math.Abs(want[i]) {
			return false
		}
	}
	return true
}

// runClients runs `ways` closed-loop callers that share `ops` main
// operations equally, and concatenates their records.
func runClients(ways, ops int, client func(id, ops int) []opRec) []opRec {
	out := make([][]opRec, ways)
	var wg sync.WaitGroup
	for c := 0; c < ways; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out[c] = client(c, (ops+ways-1)/ways)
		}(c)
	}
	wg.Wait()
	var all []opRec
	for _, o := range out {
		all = append(all, o...)
	}
	return all
}

// protein is the seeded generator every workload draws its molecules from.
// Streams are separated per workload and index so no two inputs coincide.
func protein(name string, atoms int, seed int64, stream int) *molecule.Molecule {
	return molecule.GenerateProtein(fmt.Sprintf("%s-%d", name, stream), atoms, seed*1000+int64(stream))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// median of an unsorted sample (NaN when empty).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile of a sorted sample by linear interpolation (NaN when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}
