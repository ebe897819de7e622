package serve

import (
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"octgb/internal/core"
	"octgb/internal/molecule"
	"octgb/internal/testutil"
)

// The tests in this file are the stream-session lifecycle race matrix:
// store eviction (LRU and idle) and close racing in-flight frame
// evaluation. They are written to run under -race (the `make race` list
// includes this package) and assert the lifecycle contract directly: an
// eviction closes the session as a close does, waiting for a frame that
// holds it; a close releases the session's storage, so a frame that runs
// after it answers a clean 404; and every post-removal request observes a
// clean 404 — never a torn session.

// grabSession fetches the live session pointer for white-box
// orchestration (holding its mutex stalls that session's next frame at
// the top of its worker closure).
func grabSession(t *testing.T, s *Server, id string) *streamSession {
	t.Helper()
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	st := s.sessions[id]
	if st == nil {
		t.Fatalf("session %s not in store", id)
	}
	return st
}

// waitFrameDispatched waits until n frame requests hold their session —
// the handler counts a frame only after its session lookup — and the
// submission queue is empty. A frame that has been counted may not have
// been submitted yet, but a close can no longer take its session from it.
func waitFrameDispatched(t *testing.T, s *Server, frames int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.metrics.streamFrames.Value() < frames || len(s.queue) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("frame never dispatched: frames=%d queue=%d",
				s.metrics.streamFrames.Value(), len(s.queue))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamRaceLRUEvictionVsInflightFrame: a frame is dispatched on a
// worker when a create pushes the session out of the store (LRU,
// MaxSessions 1). The create's eviction closes the session under its
// lock, so the frame answers 200 if it takes the lock first or 404 if the
// close does; the next frame on the evicted id sees 404.
func TestStreamRaceLRUEvictionVsInflightFrame(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	s, ts := newTestServer(t, Config{Workers: 2, Threads: 1, MaxSessions: 1})

	mol := molecule.GenerateProtein("lru-race", 120, 21)
	var a StreamCreateResponse
	if code := postJSON(t, ts.URL+"/v1/stream", StreamCreateRequest{Molecule: FromMolecule(mol)}, &a); code != http.StatusOK {
		t.Fatalf("create A status %d", code)
	}
	wire, _ := jitterMoves(mol, 1, 3, 0.05, 7)
	frameURL := ts.URL + "/v1/stream/" + a.SessionID + "/frame"

	// Hold A's evaluation lock so the frame's worker closure parks after
	// lookup, leaving the race window open for as long as we need it.
	stA := grabSession(t, s, a.SessionID)
	stA.mu.Lock()
	frameDone := make(chan int, 1)
	var frameResp StreamFrameResponse
	go func() {
		frameDone <- postJSON(t, frameURL, StreamFrameRequest{Moves: wire[0]}, &frameResp)
	}()
	waitFrameDispatched(t, s, 1)

	// The create needs room in the size-1 store: it must evict A even
	// though A's frame is still on a worker, and its close waits for A.
	createDone := make(chan int, 1)
	var b StreamCreateResponse
	go func() {
		createDone <- postJSON(t, ts.URL+"/v1/stream", StreamCreateRequest{Molecule: FromMolecule(mol)}, &b)
	}()
	for deadline := time.Now().Add(10 * time.Second); s.snapshot().Streaming.EvictedLRU != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the create never evicted A")
		}
	}
	stA.mu.Unlock()
	switch code := <-frameDone; code {
	case http.StatusOK:
		if frameResp.Frame != 1 || frameResp.Energy == 0 {
			t.Fatalf("in-flight frame report %+v", frameResp)
		}
	case http.StatusNotFound:
	default:
		t.Fatalf("in-flight frame on evicted session: status %d", code)
	}
	if code := <-createDone; code != http.StatusOK {
		t.Fatalf("create B status %d", code)
	}
	if st := s.snapshot(); st.Streaming.EvictedLRU != 1 || st.Streaming.Live != 1 {
		t.Fatalf("after eviction: %+v", st.Streaming)
	}

	// The store no longer knows A: the next frame is a clean 404, and the
	// survivor B still serves frames.
	var gone ErrorResponse
	if code := postJSON(t, frameURL, StreamFrameRequest{Moves: wire[0]}, &gone); code != http.StatusNotFound || gone.Error != "not_found" {
		t.Fatalf("post-eviction frame: status %d token %q", code, gone.Error)
	}
	if code := postJSON(t, ts.URL+"/v1/stream/"+b.SessionID+"/frame", StreamFrameRequest{Moves: wire[0]}, nil); code != http.StatusOK {
		t.Fatalf("survivor frame status %d", code)
	}
}

// TestStreamEvictionRecyclesSession: an idle eviction closes the session.
// A frame that looked it up before the eviction and runs after it answers
// 404, and the next create builds in the evicted session's storage.
func TestStreamEvictionRecyclesSession(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	s, ts := newTestServer(t, Config{Workers: 1, Threads: 1})

	mol := molecule.GenerateProtein("evict-recycle", 120, 25)
	var a StreamCreateResponse
	if code := postJSON(t, ts.URL+"/v1/stream", StreamCreateRequest{Molecule: FromMolecule(mol)}, &a); code != http.StatusOK {
		t.Fatalf("create status %d", code)
	}
	wire, _ := jitterMoves(mol, 1, 3, 0.05, 11)
	stA := grabSession(t, s, a.SessionID)
	held := stA.ss.MemoryBytes()

	// Occupy the one worker, so the frame is looked up and queued but runs
	// only after the eviction.
	block := make(chan struct{})
	if err := s.submit(func() { <-block }); err != nil {
		t.Fatal(err)
	}
	frameDone := make(chan int, 1)
	var gone ErrorResponse
	go func() {
		frameDone <- postJSON(t, ts.URL+"/v1/stream/"+a.SessionID+"/frame", StreamFrameRequest{Moves: wire[0]}, &gone)
	}()
	for deadline := time.Now().Add(10 * time.Second); s.metrics.streamFrames.Value() < 1 || len(s.queue) < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the frame was never queued")
		}
	}

	// Age A past SessionIdle; the next lookup sweeps it out and closes it.
	core.Free.Drain()
	s.sessMu.Lock()
	stA.lastUsed = time.Now().Add(-time.Hour)
	s.sessMu.Unlock()
	if code := postJSON(t, ts.URL+"/v1/stream/s-none/frame", StreamFrameRequest{Moves: wire[0]}, nil); code != http.StatusNotFound {
		t.Fatalf("frame on an unknown id: status %d", code)
	}
	if st := s.snapshot(); st.Streaming.EvictedIdle != 1 || st.Streaming.Live != 0 {
		t.Fatalf("after the idle sweep: %+v", st.Streaming)
	}
	if got := core.Free.Held(); got != held {
		t.Fatalf("the evicted session handed back %d bytes, it held %d", got, held)
	}
	close(block)
	if code := <-frameDone; code != http.StatusNotFound || gone.Error != "not_found" {
		t.Fatalf("frame queued across the eviction: status %d token %q", code, gone.Error)
	}

	if code := postJSON(t, ts.URL+"/v1/stream", StreamCreateRequest{Molecule: FromMolecule(mol)}, nil); code != http.StatusOK {
		t.Fatalf("create after the eviction: status %d", code)
	}
	if got := core.Free.Held(); got > held/10 {
		t.Fatalf("the create left %d of the evicted session's %d bytes unused", got, held)
	}
}

// TestStreamRaceCloseDuringFrame: DELETE races a frame that is already on
// a worker. The close wins the store map immediately; the frame answers
// 200 with a finite energy if it takes the session lock first, or 404 if
// the close does and releases the session, and everything after the close
// observes 404.
func TestStreamRaceCloseDuringFrame(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	s, ts := newTestServer(t, Config{Workers: 2, Threads: 1})

	mol := molecule.GenerateProtein("close-race", 120, 22)
	var created StreamCreateResponse
	if code := postJSON(t, ts.URL+"/v1/stream", StreamCreateRequest{Molecule: FromMolecule(mol)}, &created); code != http.StatusOK {
		t.Fatalf("create status %d", code)
	}
	wire, _ := jitterMoves(mol, 1, 3, 0.05, 9)
	frameURL := ts.URL + "/v1/stream/" + created.SessionID + "/frame"

	st := grabSession(t, s, created.SessionID)
	st.mu.Lock()
	frameDone := make(chan int, 1)
	var frame StreamFrameResponse
	go func() {
		frameDone <- postJSON(t, frameURL, StreamFrameRequest{Moves: wire[0]}, &frame)
	}()
	waitFrameDispatched(t, s, 1)

	// Close while the frame is parked on the session lock. The handler
	// removes the session from the store first, then waits for the lock to
	// read the final frame count — so it blocks until we release, which is
	// exactly the concurrency this test exists to exercise.
	closeDone := make(chan int, 1)
	var closed StreamCloseResponse
	go func() {
		closeDone <- doJSON(t, http.MethodDelete, ts.URL+"/v1/stream/"+created.SessionID, nil, &closed)
	}()
	// The close wins the map race even while the frame holds the session:
	// once the id is gone from the store, new frames 404 regardless of the
	// in-flight one.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.sessMu.Lock()
		_, live := s.sessions[created.SessionID]
		s.sessMu.Unlock()
		if !live {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("close never removed the session from the store")
		}
		time.Sleep(time.Millisecond)
	}
	st.mu.Unlock()

	switch code := <-frameDone; code {
	case http.StatusOK:
		if math.IsNaN(frame.Energy) || math.IsInf(frame.Energy, 0) {
			t.Fatalf("in-flight frame during close: energy %g", frame.Energy)
		}
	case http.StatusNotFound:
	default:
		t.Fatalf("in-flight frame during close: status %d", code)
	}
	if code := <-closeDone; code != http.StatusOK {
		t.Fatalf("close status %d", code)
	}
	var gone ErrorResponse
	if code := postJSON(t, frameURL, StreamFrameRequest{Moves: wire[0]}, &gone); code != http.StatusNotFound {
		t.Fatalf("frame after close: status %d", code)
	}
	if st := s.snapshot(); st.Streaming.Live != 0 || st.Streaming.Closed != 1 {
		t.Fatalf("post-close stats %+v", st.Streaming)
	}
}

// TestStreamRaceFramesAcrossClose: frames from several clients race a
// close of their session. Each answers 200 with a finite energy (it ran
// before the close) or 404 not_found (it ran after it, or looked the
// session up after it): never a 5xx, a panic or a frame on released
// storage.
func TestStreamRaceFramesAcrossClose(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	s, ts := newTestServer(t, Config{Workers: 2, Threads: 1, MaxQueue: 256})

	mol := molecule.GenerateProtein("close-frames", 120, 24)
	wire, _ := jitterMoves(mol, 4, 3, 0.05, 10)
	for round := 0; round < 4; round++ {
		var created StreamCreateResponse
		if code := postJSON(t, ts.URL+"/v1/stream", StreamCreateRequest{Molecule: FromMolecule(mol)}, &created); code != http.StatusOK {
			t.Fatalf("create status %d", code)
		}
		frameURL := ts.URL + "/v1/stream/" + created.SessionID + "/frame"
		const clients, frames = 3, 6
		var ok, gone atomic.Int64
		var wg sync.WaitGroup
		counted := s.metrics.streamFrames.Value()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for f := 0; f < frames; f++ {
					var out struct {
						Energy float64 `json:"energy"`
						Error  string  `json:"error"`
					}
					switch code := postJSON(t, frameURL, StreamFrameRequest{Moves: wire[f%len(wire)]}, &out); {
					case code == http.StatusOK && !math.IsNaN(out.Energy) && !math.IsInf(out.Energy, 0):
						ok.Add(1)
					case code == http.StatusNotFound && out.Error == "not_found":
						gone.Add(1)
					default:
						t.Errorf("frame racing close: status %d, energy %g, error %q", code, out.Energy, out.Error)
					}
				}
			}()
		}
		// Close once the first frames hold the session, while later ones
		// are queued on its lock or still on their way.
		for deadline := time.Now().Add(10 * time.Second); s.metrics.streamFrames.Value() < counted+2; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatal("no frame reached the session")
			}
		}
		if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/stream/"+created.SessionID, nil, nil); code != http.StatusOK {
			t.Fatalf("close status %d", code)
		}
		wg.Wait()
		if ok.Load()+gone.Load() != clients*frames {
			t.Fatalf("round %d: %d ok + %d gone != %d frames", round, ok.Load(), gone.Load(), clients*frames)
		}
		t.Logf("round %d: %d frames answered 200, %d answered 404", round, ok.Load(), gone.Load())
	}
}

// TestStreamRaceIdleEvictionVsChurn runs create/frame/close churn across
// goroutines while another goroutine repeatedly ages every live session
// past the idle threshold. Any individual frame or close may land 200
// (it won) or 404 (the sweeper won) — anything else is a bug — and the
// lifecycle counters must balance exactly at the end.
func TestStreamRaceIdleEvictionVsChurn(t *testing.T) {
	defer testutil.Watchdog(t, 2*time.Minute)()
	s, ts := newTestServer(t, Config{
		Workers: 2, Threads: 1, MaxSessions: 4, MaxQueue: 256,
		SessionIdle: 50 * time.Millisecond,
	})

	mol := molecule.GenerateProtein("churn", 60, 23)
	molJSON := FromMolecule(mol)
	wire, _ := jitterMoves(mol, 1, 2, 0.05, 13)

	stop := make(chan struct{})
	var sweeps sync.WaitGroup
	sweeps.Add(1)
	go func() {
		defer sweeps.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Age everything past SessionIdle; the next store access (any
			// lookup or create) sweeps the aged sessions out.
			s.sessMu.Lock()
			for _, live := range s.sessions {
				live.lastUsed = time.Now().Add(-time.Minute)
			}
			s.sessMu.Unlock()
			// Slow enough that plenty of frames win the race too — the
			// interesting regime is the mix, not a sweeper that always wins.
			time.Sleep(15 * time.Millisecond)
		}
	}()

	const clients, rounds, framesPerSession = 4, 6, 3
	var createdOK, frameOK, frameGone, closeOK, closeGone atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var created StreamCreateResponse
				if code := postJSON(t, ts.URL+"/v1/stream", StreamCreateRequest{Molecule: molJSON}, &created); code != http.StatusOK {
					t.Errorf("churn create: status %d", code)
					return
				}
				createdOK.Add(1)
				for f := 0; f < framesPerSession; f++ {
					switch code := postJSON(t, ts.URL+"/v1/stream/"+created.SessionID+"/frame", StreamFrameRequest{Moves: wire[0]}, nil); code {
					case http.StatusOK:
						frameOK.Add(1)
					case http.StatusNotFound:
						frameGone.Add(1)
					default:
						t.Errorf("churn frame: status %d", code)
						return
					}
				}
				switch code := doJSON(t, http.MethodDelete, ts.URL+"/v1/stream/"+created.SessionID, nil, nil); code {
				case http.StatusOK:
					closeOK.Add(1)
				case http.StatusNotFound:
					closeGone.Add(1)
				default:
					t.Errorf("churn close: status %d", code)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	sweeps.Wait()

	st := s.snapshot()
	// Every session a client successfully created left the store exactly
	// one way: explicit close, LRU eviction, idle eviction, or it is still
	// live. The books must balance — a leak or a double-removal breaks it.
	total := st.Streaming.Closed + st.Streaming.EvictedLRU + st.Streaming.EvictedIdle + int64(st.Streaming.Live)
	if total != createdOK.Load() || st.Streaming.Created != createdOK.Load() {
		t.Fatalf("lifecycle books do not balance: created=%d closed=%d lru=%d idle=%d live=%d",
			st.Streaming.Created, st.Streaming.Closed, st.Streaming.EvictedLRU,
			st.Streaming.EvictedIdle, st.Streaming.Live)
	}
	if got := frameOK.Load() + frameGone.Load(); got != clients*rounds*framesPerSession {
		t.Fatalf("frame outcomes %d (ok %d, gone %d) != attempts %d",
			got, frameOK.Load(), frameGone.Load(), clients*rounds*framesPerSession)
	}
	if got := closeOK.Load() + closeGone.Load(); got != clients*rounds {
		t.Fatalf("close outcomes %d != attempts %d", got, clients*rounds)
	}
	if st.Streaming.EvictedIdle == 0 {
		t.Fatal("aging sweeper never evicted anything — the race never happened")
	}
	t.Logf("churn: created=%d frames ok=%d gone=%d closes ok=%d gone=%d evicted idle=%d lru=%d",
		createdOK.Load(), frameOK.Load(), frameGone.Load(), closeOK.Load(), closeGone.Load(),
		st.Streaming.EvictedIdle, st.Streaming.EvictedLRU)
}
