package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"octgb/internal/molecule"
	"octgb/internal/obs"
	"octgb/internal/testutil"
)

// p99Of is the p99 the server would derive from a window whose
// observations are the given durations: a histogram bucket bound.
func p99Of(ds ...time.Duration) time.Duration {
	h := &obs.Histogram{}
	for _, d := range ds {
		h.Observe(d)
	}
	return h.Snapshot().Quantile(0.99)
}

// slowWindow is a breach window: p99 well over a 100ms SLO with the queue
// wait carrying most of it.
func slowWindow() TunerInputs {
	return TunerInputs{
		AdmittedQPS: 50,
		P99:         p99Of(300*time.Millisecond, 350*time.Millisecond, 400*time.Millisecond),
		QueueP99:    p99Of(250*time.Millisecond, 300*time.Millisecond, 350*time.Millisecond),
	}
}

// fastWindow is a slack window: p99 far under the SLO.
func fastWindow() TunerInputs {
	return TunerInputs{
		AdmittedQPS: 50,
		P99:         p99Of(5*time.Millisecond, 6*time.Millisecond, 7*time.Millisecond),
		QueueP99:    p99Of(time.Millisecond),
	}
}

func testTunerCfg() TunerConfig {
	return TunerConfig{SLO: SLO{P99: 100 * time.Millisecond, MinQPS: 10}}.
		withDefaults(2, 64, 5*time.Millisecond)
}

// TestTunerControlLaw walks the AIMD law: hysteresis holds the first
// breach, the second tightens the queue and arms shedding, floors hold
// under further pressure, and sustained slack relaxes back toward the
// rails.
func TestTunerControlLaw(t *testing.T) {
	cfg := testTunerCfg()
	tn := NewTuner(cfg, Knobs{BatchWindow: 5 * time.Millisecond, QueueLimit: 64})

	d := tn.Step(slowWindow())
	if d.Action != "hold" {
		t.Fatalf("first breach acted immediately: %s", d)
	}
	if d.Knobs.QueueLimit != 64 || d.Knobs.ShedLatency != 0 {
		t.Fatalf("knobs moved inside hysteresis: %s", d)
	}

	d = tn.Step(slowWindow())
	if d.Action != "tighten_queue" {
		t.Fatalf("second breach: action %q, want tighten_queue (%s)", d.Action, d)
	}
	if d.Knobs.QueueLimit != 48 {
		t.Fatalf("queue limit = %d, want 48 (¾ of 64)", d.Knobs.QueueLimit)
	}
	if d.Knobs.ShedLatency != 50*time.Millisecond {
		t.Fatalf("shed = %v, want 50ms (half the SLO budget)", d.Knobs.ShedLatency)
	}

	// Keep breaching: the queue walks down but never below MinQueue, the
	// shed threshold never below an eighth of the budget.
	for i := 0; i < 20; i++ {
		d = tn.Step(slowWindow())
	}
	if d.Knobs.QueueLimit < cfg.MinQueue {
		t.Fatalf("queue limit %d fell below floor %d", d.Knobs.QueueLimit, cfg.MinQueue)
	}
	if d.Knobs.ShedLatency < cfg.SLO.P99/8 {
		t.Fatalf("shed %v fell below floor %v", d.Knobs.ShedLatency, cfg.SLO.P99/8)
	}

	// Sustained slack relaxes: queue grows again, shed loosens.
	tight := d.Knobs
	tn.Step(fastWindow())
	d = tn.Step(fastWindow())
	if d.Action != "relax" {
		t.Fatalf("sustained slack: action %q, want relax (%s)", d.Action, d)
	}
	if d.Knobs.QueueLimit <= tight.QueueLimit || d.Knobs.ShedLatency <= tight.ShedLatency {
		t.Fatalf("relax did not loosen: %+v -> %+v", tight, d.Knobs)
	}
	// Relaxation is bounded by the rails.
	for i := 0; i < 40; i++ {
		tn.Step(fastWindow())
		d = tn.Step(fastWindow())
	}
	if d.Knobs.QueueLimit > cfg.MaxQueue || d.Knobs.ShedLatency > cfg.SLO.P99 {
		t.Fatalf("relax overshot the rails: %+v", d.Knobs)
	}
}

// TestTunerEvalDominatedWidensBatch: when the breach is evaluation-bound
// (queue wait is a small share of the request latency), admission can't
// help — the tuner widens the batch window for coalescing capacity.
func TestTunerEvalDominatedWidensBatch(t *testing.T) {
	tn := NewTuner(testTunerCfg(), Knobs{BatchWindow: 5 * time.Millisecond, QueueLimit: 64})
	evalBound := TunerInputs{
		AdmittedQPS: 20,
		P99:         p99Of(300*time.Millisecond, 400*time.Millisecond),
		QueueP99:    p99Of(2 * time.Millisecond),
	}
	tn.Step(evalBound)
	d := tn.Step(evalBound)
	if d.Action != "widen_batch" {
		t.Fatalf("eval-bound breach: action %q, want widen_batch (%s)", d.Action, d)
	}
	if d.Knobs.BatchWindow != 10*time.Millisecond {
		t.Fatalf("batch window = %v, want 10ms (doubled)", d.Knobs.BatchWindow)
	}
	if d.Knobs.QueueLimit != 64 {
		t.Fatalf("queue limit moved on an eval-bound breach: %d", d.Knobs.QueueLimit)
	}
}

// TestTunerIdleWindowHoldsStreaks: an empty window records "idle", moves
// nothing, and does not launder an in-progress breach streak.
func TestTunerIdleWindowHoldsStreaks(t *testing.T) {
	tn := NewTuner(testTunerCfg(), Knobs{BatchWindow: 5 * time.Millisecond, QueueLimit: 64})
	tn.Step(slowWindow())
	d := tn.Step(TunerInputs{})
	if d.Action != "idle" || d.Knobs.QueueLimit != 64 {
		t.Fatalf("idle window: %s", d)
	}
	d = tn.Step(slowWindow())
	if d.Action != "tighten_queue" {
		t.Fatalf("breach streak did not survive the idle window: %s", d)
	}
}

// TestTunerWindowDiff: the server's window diff yields what Step reads —
// a zero p99, so an idle window, when no request finished; otherwise the
// bucket-bound p99s, completions per second and the shed count.
func TestTunerWindowDiff(t *testing.T) {
	t0 := time.Now()
	prev := tunerWindow{at: t0, completed: 10, shed: 1}
	if in := (tunerWindow{at: t0.Add(time.Second), completed: 10, shed: 1}).diff(prev); in != (TunerInputs{}) {
		t.Fatalf("window with no completions: %+v", in)
	}
	req, queue := &obs.Histogram{}, &obs.Histogram{}
	req.Observe(300 * time.Millisecond)
	queue.Observe(time.Millisecond)
	cur := tunerWindow{at: t0.Add(500 * time.Millisecond), completed: 30, shed: 4,
		req: req.Snapshot(), queue: queue.Snapshot()}
	want := TunerInputs{P99: p99Of(300 * time.Millisecond), QueueP99: p99Of(time.Millisecond), AdmittedQPS: 40, Shed: 3}
	if in := cur.diff(prev); in != want {
		t.Fatalf("diff = %+v, want %+v", in, want)
	}
}

// TestTunerDeterministicLog: two tuners fed the identical window sequence
// produce byte-identical decision logs — the replay contract
// TestTunerReplaysLiveLog pins on a live run.
func TestTunerDeterministicLog(t *testing.T) {
	seq := []TunerInputs{
		slowWindow(), slowWindow(), slowWindow(),
		{},
		fastWindow(), fastWindow(), slowWindow(), fastWindow(), fastWindow(),
	}
	run := func() []string {
		tn := NewTuner(testTunerCfg(), Knobs{BatchWindow: 5 * time.Millisecond, QueueLimit: 64})
		for _, in := range seq {
			tn.Step(in)
		}
		var out []string
		for _, d := range tn.Log() {
			out = append(out, d.String())
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(seq) {
		t.Fatalf("log has %d entries for %d windows", len(a), len(seq))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged:\n  %s\n  %s", i, a[i], b[i])
		}
	}
}

// TestServerShedLoad drives the shed path through HTTP: with the threshold
// armed, a deep queue and a high observed mean evaluation time, a new
// energy request is turned away 429 with the shed_load token (and the
// tuned queue limit rejects below the channel's physical capacity).
func TestServerShedLoad(t *testing.T) {
	defer testutil.Watchdog(t, time.Minute)()
	s, ts := newTestServer(t, Config{Workers: 1, Threads: 1, MaxQueue: 8})

	// Park the lone worker and stack two queued items so depth >= workers.
	block := make(chan struct{})
	defer close(block)
	if err := s.submit(func() { <-block }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.submit(func() {}); err != nil {
			t.Fatal(err)
		}
	}

	// Pretend history: evaluations average 1s, shed anything estimated
	// over 100ms.
	s.metrics.eval.Observe(time.Second)
	s.applyKnobs(Knobs{BatchWindow: 5 * time.Millisecond, QueueLimit: 8, ShedLatency: 100 * time.Millisecond})

	mol := molecule.GenerateProtein("shed", 60, 2)
	var errResp ErrorResponse
	if code := postJSON(t, ts.URL+"/v1/energy", EnergyRequest{Molecule: FromMolecule(mol)}, &errResp); code != http.StatusTooManyRequests {
		t.Fatalf("shed request: status %d (%+v)", code, errResp)
	}
	if errResp.Error != "shed_load" {
		t.Fatalf("shed token %q, want shed_load", errResp.Error)
	}
	if st := s.snapshot(); st.Admission.ShedLoad != 1 {
		t.Fatalf("shed counter = %d, want 1", st.Admission.ShedLoad)
	}

	// A tuned queue limit below the physical capacity rejects queue_full.
	s.applyKnobs(Knobs{BatchWindow: 5 * time.Millisecond, QueueLimit: 2, ShedLatency: 0})
	if code := postJSON(t, ts.URL+"/v1/energy", EnergyRequest{Molecule: FromMolecule(mol)}, &errResp); code != http.StatusTooManyRequests {
		t.Fatalf("limited request: status %d", code)
	}
	if errResp.Error != "queue_full" {
		t.Fatalf("limited token %q, want queue_full", errResp.Error)
	}
}

// TestServerTunerLoop boots a server with an unmeetable SLO and checks the
// live control loop reacts: decisions accumulate, a tighten lands, and the
// knobs published to the admission atomics moved off their configured
// defaults. /stats carries the tuner block. The server has no Observer:
// the loop closes on the histograms every server records.
//
// The SLO, 1µs, sits below the latency histograms' smallest bucket bound
// (1.024µs), so every window in which a request finishes reports a p99 over
// it: the breach does not depend on how fast this machine serves a request.
func TestServerTunerLoop(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	const slo = time.Microsecond
	s, ts := newTestServer(t, Config{
		Workers:  1,
		Threads:  1,
		MaxQueue: 32,
		Tuner: &TunerConfig{
			SLO:      SLO{P99: slo, MinQPS: 1},
			Interval: 25 * time.Millisecond,
		},
	})
	if s.cfg.Observe != nil {
		t.Fatal("tuner config attached an observer")
	}

	mol := molecule.GenerateProtein("tune", 150, 4)
	deadline := time.Now().Add(30 * time.Second)
	tightened := false
	for time.Now().Before(deadline) && !tightened {
		var resp EnergyResponse
		if code := postJSON(t, ts.URL+"/v1/energy", EnergyRequest{Molecule: FromMolecule(mol)}, &resp); code != http.StatusOK && code != http.StatusTooManyRequests {
			t.Fatalf("energy status %d", code)
		}
		for _, d := range s.TunerDecisions() {
			if d.Action == "tighten_queue" || d.Action == "widen_batch" {
				tightened = true
			}
		}
	}
	if !tightened {
		t.Fatalf("tuner never tightened under a %v SLO; log: %v", slo, s.TunerDecisions())
	}
	k := s.CurrentKnobs()
	if k.ShedLatency == 0 {
		t.Fatalf("shedding never armed: %+v", k)
	}

	var st StatsSnapshot
	if code := doJSON(t, http.MethodGet, ts.URL+"/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("/stats status %d", code)
	}
	if st.Tuner == nil || st.Tuner.Decisions == 0 || st.Tuner.LastDecision == "" {
		t.Fatalf("/stats tuner block missing or empty: %+v", st.Tuner)
	}
	if st.Tuner.SLO.P99 != slo {
		t.Fatalf("/stats tuner SLO %+v", st.Tuner.SLO)
	}
}

// liveTunerRun is the part of a `cmd/loadgen -o` document the replay
// reads: the in-process server's sizing and SLO, and the run's report.
type liveTunerRun struct {
	Trace      string `json:"trace"`
	Commit     string `json:"commit"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Sim        struct {
		Workers       int     `json:"workers"`
		Queue         int     `json:"queue"`
		BatchWindowMS float64 `json:"batch_window_ms"`
	} `json:"sim"`
	SLO struct {
		P99MS  float64 `json:"p99_ms"`
		MinQPS float64 `json:"min_qps"`
	} `json:"slo"`
	IntervalMS float64 `json:"interval_ms"`
	Live       struct {
		P99MS           float64  `json:"p99_ms"`
		AdmittedQPS     float64  `json:"admitted_qps"`
		EvictedSessions int64    `json:"evicted_sessions"`
		Decisions       []string `json:"decisions"`
	} `json:"live"`
}

// parseWindow reads back the inputs a Decision's String form prints.
func parseWindow(line string) (TunerInputs, error) {
	head, _, ok := strings.Cut(line, " reason=")
	if !ok {
		return TunerInputs{}, fmt.Errorf("no reason in %q", line)
	}
	kv := map[string]string{}
	for _, f := range strings.Fields(head) {
		k, v, _ := strings.Cut(f, "=")
		kv[k] = v
	}
	p99, err1 := time.ParseDuration(kv["p99"])
	queueP99, err2 := time.ParseDuration(kv["queue_p99"])
	qps, err3 := strconv.ParseFloat(kv["qps"], 64)
	shed, err4 := strconv.ParseUint(kv["shed"], 10, 64)
	if err := errors.Join(err1, err2, err3, err4); err != nil {
		return TunerInputs{}, fmt.Errorf("%q: %w", line, err)
	}
	return TunerInputs{P99: p99, QueueP99: queueP99, AdmittedQPS: qps, Shed: shed}, nil
}

// TestTunerReplaysLiveLog is the tuner's regression gate (make
// load-check). Its fixture is one in-process live replay of
// traces/steady-mixed.json, recorded by `make load-bench`. A fresh tuner,
// configured as that server configured its own, is stepped through every
// logged window and must log the same decision. Each step must also obey
// the control law Tuner documents, checked here against an independent
// count of the breach and slack streaks.
func TestTunerReplaysLiveLog(t *testing.T) {
	raw, err := os.ReadFile("testdata/tuner-live-steady-mixed.json")
	if err != nil {
		t.Fatal(err)
	}
	var run liveTunerRun
	if err := json.Unmarshal(raw, &run); err != nil {
		t.Fatal(err)
	}
	if run.Trace != "steady-mixed" || run.Commit == "" || run.GOMAXPROCS <= 0 {
		t.Fatalf("fixture is not a labelled steady-mixed run: trace %q commit %q GOMAXPROCS %d",
			run.Trace, run.Commit, run.GOMAXPROCS)
	}
	if run.Live.EvictedSessions != 0 || run.Live.P99MS <= 0 || run.Live.AdmittedQPS <= 0 {
		t.Fatalf("fixture run evicted %d sessions, p99 %.1fms, %.1f qps",
			run.Live.EvictedSessions, run.Live.P99MS, run.Live.AdmittedQPS)
	}
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	tn := newTuner(Config{
		Workers:     run.Sim.Workers,
		MaxQueue:    run.Sim.Queue,
		BatchWindow: ms(run.Sim.BatchWindowMS),
		Tuner: &TunerConfig{
			SLO:      SLO{P99: ms(run.SLO.P99MS), MinQPS: run.SLO.MinQPS},
			Interval: ms(run.IntervalMS),
		},
	}.withDefaults())
	cfg, slo := tn.cfg, tn.cfg.SLO.P99

	prev := tn.Knobs()
	var breach, slack, tightens, relaxes int
	for i, line := range run.Live.Decisions {
		in, err := parseWindow(line)
		if err != nil {
			t.Fatalf("window %d: %v", i+1, err)
		}
		d := tn.Step(in)
		if got := d.String(); got != line {
			t.Fatalf("window %d replays to a different decision:\n  logged   %s\n  replayed %s", i+1, line, got)
		}

		k := d.Knobs
		if k.QueueLimit < cfg.MinQueue || k.QueueLimit > cfg.MaxQueue ||
			k.BatchWindow < cfg.MinBatchWindow || k.BatchWindow > cfg.MaxBatchWindow ||
			(k.ShedLatency != 0 && (k.ShedLatency < slo/8 || k.ShedLatency > slo)) {
			t.Fatalf("window %d: knobs off their rails: %s", i+1, line)
		}

		idle := in.P99 == 0
		switch {
		case idle: // streaks hold
		case in.P99 > slo:
			breach, slack = breach+1, 0
		case in.P99 <= 7*slo/10:
			breach, slack = 0, slack+1
		default:
			breach, slack = 0, 0
		}
		switch {
		case idle:
			if d.Action != "idle" || k != prev {
				t.Fatalf("window %d: an idle window acted: %s", i+1, line)
			}
		case breach == cfg.Hysteresis:
			breach = 0
			tightens++
			queueBound := 2*in.QueueP99 >= in.P99
			atRail := k.ShedLatency == slo/8 &&
				(queueBound && k.QueueLimit == cfg.MinQueue || !queueBound && k.BatchWindow == cfg.MaxBatchWindow)
			switch {
			case queueBound && d.Action != "tighten_queue", !queueBound && d.Action != "widen_batch":
				t.Fatalf("window %d: %d over-SLO windows did not tighten the right knob: %s", i+1, cfg.Hysteresis, line)
			case k == prev && !atRail:
				t.Fatalf("window %d: a tightening step moved nothing off its rail: %s", i+1, line)
			case k.QueueLimit > prev.QueueLimit || k.BatchWindow < prev.BatchWindow ||
				k.ShedLatency == 0 || (prev.ShedLatency != 0 && k.ShedLatency > prev.ShedLatency):
				t.Fatalf("window %d: a tightening step loosened a knob: %s", i+1, line)
			}
		case slack == cfg.Hysteresis:
			slack = 0
			if d.Action == "relax" {
				relaxes++
			}
			if d.Action != "relax" && !(d.Action == "hold" && k == prev) ||
				k.QueueLimit < prev.QueueLimit || k.BatchWindow < prev.BatchWindow || k.ShedLatency < prev.ShedLatency {
				t.Fatalf("window %d: %d slack windows did not relax: %s", i+1, cfg.Hysteresis, line)
			}
		default:
			if d.Action != "hold" || k != prev {
				t.Fatalf("window %d: knobs moved inside the hysteresis band: %s", i+1, line)
			}
		}
		prev = k
	}
	if tightens == 0 || relaxes == 0 {
		t.Fatalf("fixture exercises too little of the law: %d tightening and %d relax steps in %d windows",
			tightens, relaxes, len(run.Live.Decisions))
	}
}
