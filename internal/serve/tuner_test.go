package serve

import (
	"net/http"
	"testing"
	"time"

	"octgb/internal/molecule"
	"octgb/internal/obs"
	"octgb/internal/testutil"
)

// histOf builds a window snapshot whose observations are the given
// durations — synthetic tuner inputs with known quantiles.
func histOf(ds ...time.Duration) obs.HistSnapshot {
	h := &obs.Histogram{}
	for _, d := range ds {
		h.Observe(d)
	}
	return h.Snapshot()
}

// slowWindow is a breach window: p99 well over a 100ms SLO with the queue
// wait carrying most of it.
func slowWindow() TunerInputs {
	return TunerInputs{
		Elapsed:   time.Second,
		Completed: 50,
		Request:   histOf(300*time.Millisecond, 350*time.Millisecond, 400*time.Millisecond),
		Queue:     histOf(250*time.Millisecond, 300*time.Millisecond, 350*time.Millisecond),
	}
}

// fastWindow is a slack window: p99 far under the SLO.
func fastWindow() TunerInputs {
	return TunerInputs{
		Elapsed:   time.Second,
		Completed: 50,
		Request:   histOf(5*time.Millisecond, 6*time.Millisecond, 7*time.Millisecond),
		Queue:     histOf(time.Millisecond),
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
		Elapsed:   time.Second,
		Completed: 20,
		Request:   histOf(300*time.Millisecond, 400*time.Millisecond),
		Queue:     histOf(2 * time.Millisecond),
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
	d := tn.Step(TunerInputs{Elapsed: time.Second})
	if d.Action != "idle" || d.Knobs.QueueLimit != 64 {
		t.Fatalf("idle window: %s", d)
	}
	d = tn.Step(slowWindow())
	if d.Action != "tighten_queue" {
		t.Fatalf("breach streak did not survive the idle window: %s", d)
	}
}

// TestTunerDeterministicLog: two tuners fed the identical window sequence
// produce byte-identical decision logs — the replay contract the loadgen
// simtime test pins end to end.
func TestTunerDeterministicLog(t *testing.T) {
	seq := []TunerInputs{
		slowWindow(), slowWindow(), slowWindow(),
		{Elapsed: time.Second},
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
func TestServerTunerLoop(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	s, ts := newTestServer(t, Config{
		Workers:  1,
		Threads:  1,
		MaxQueue: 32,
		Tuner: &TunerConfig{
			SLO:      SLO{P99: time.Millisecond, MinQPS: 1},
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
		t.Fatalf("tuner never tightened under a 1ms SLO; log: %v", s.TunerDecisions())
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
	if st.Tuner.SLO.P99 != time.Millisecond {
		t.Fatalf("/stats tuner SLO %+v", st.Tuner.SLO)
	}
}
