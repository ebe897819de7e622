package fabric

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"octgb/internal/serve"
)

// ServeLoad adapts a serve.Server's instantaneous load view into the
// heartbeat report — the WorkerConfig.Load hookup every engine worker
// uses.
func ServeLoad(s *serve.Server) func() LoadReport {
	return func() LoadReport {
		ls := s.LoadStats()
		return LoadReport{
			Workers:      int64(ls.Workers),
			QueueDepth:   int64(ls.QueueDepth),
			Inflight:     ls.Inflight,
			Sessions:     int64(ls.Sessions),
			CacheEntries: int64(ls.CacheEntries),
			CacheHits:    ls.CacheHits,
			CacheMisses:  ls.CacheMisses,
		}
	}
}

// WorkerConfig configures a worker-side membership agent.
type WorkerConfig struct {
	// RouterAddr is the router's membership listener ("host:port").
	RouterAddr string
	// WorkerID is this worker's stable identity on the ring. It must
	// satisfy validWorkerID; the shard the worker owns follows the ID, so
	// a restart under the same ID reclaims the same key ranges.
	WorkerID string
	// Advertise is the HTTP address the router forwards requests to.
	Advertise string
	// Epoch orders registrations of the same WorkerID; a restarted worker
	// must register with a larger epoch than its previous life. Wall-clock
	// nanoseconds at startup is the usual choice.
	Epoch uint64
	// Timeout is the membership timeout agreed with the router; the agent
	// heartbeats at a third of it (default DefaultMembershipTimeout).
	Timeout time.Duration
	// Load supplies the load report attached to each heartbeat; nil sends
	// zero reports.
	Load func() LoadReport
	// Logf receives agent lifecycle logs; nil is silent.
	Logf func(format string, args ...any)
}

// Worker is the worker-side membership agent: it keeps one registration
// connection to the router alive for the process's life — register, ack,
// heartbeats at a third of the membership timeout — and re-registers with
// a bumped epoch (backing off with jitter) whenever the link tears.
type Worker struct {
	cfg   WorkerConfig
	epoch atomic.Uint64

	stopCh chan struct{}
	stop   sync.Once
	wg     sync.WaitGroup

	mu   sync.Mutex
	conn net.Conn // current registration conn, nil between attempts

	registered atomic.Bool
}

// StartWorker validates cfg and starts the agent's connection loop.
func StartWorker(cfg WorkerConfig) (*Worker, error) {
	if !validWorkerID(cfg.WorkerID) {
		return nil, fmt.Errorf("fabric: invalid worker id %q (want [A-Za-z0-9._-]{1,64})", cfg.WorkerID)
	}
	if cfg.RouterAddr == "" || cfg.Advertise == "" {
		return nil, fmt.Errorf("fabric: worker needs RouterAddr and Advertise")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultMembershipTimeout
	}
	w := &Worker{cfg: cfg, stopCh: make(chan struct{})}
	w.epoch.Store(cfg.Epoch)
	w.wg.Add(1)
	go w.run()
	return w, nil
}

// WaitRegistered blocks until the agent is registered or the deadline
// passes.
func (w *Worker) WaitRegistered(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if w.registered.Load() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return w.registered.Load()
}

// Close sends a best-effort Goodbye (so the router unmaps the shard
// immediately rather than waiting out the heartbeat timeout) and stops
// the agent. The Goodbye goes out before the stop signal, or the session
// could close the link first and the router would count a failure.
func (w *Worker) Close() {
	w.stop.Do(func() {
		w.mu.Lock()
		c := w.conn
		w.mu.Unlock()
		if c != nil {
			c.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
			_ = writeMessage(c, &Message{Type: MsgGoodbye, WorkerID: w.cfg.WorkerID})
		}
		close(w.stopCh)
		if c != nil {
			c.Close()
		}
	})
	w.wg.Wait()
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// run is the agent's whole life: (re)connect, register, heartbeat until
// the link tears, back off, repeat. The backoff is exponential with
// jitter seeded per-agent, mirroring the cluster transport's dialRetry.
func (w *Worker) run() {
	defer w.wg.Done()
	rng := rand.New(rand.NewSource(int64(w.epoch.Load()) ^ int64(len(w.cfg.WorkerID))))
	backoff := 50 * time.Millisecond
	const maxBackoff = 2 * time.Second
	for {
		select {
		case <-w.stopCh:
			return
		default:
		}
		err := w.session()
		select {
		case <-w.stopCh:
			return
		default:
		}
		if err != nil {
			w.logf("fabric: worker %s link to router lost (%v); retrying in ~%v", w.cfg.WorkerID, err, backoff)
		}
		// Re-register as a new life: bump the epoch so the router accepts
		// the replacement even if the old conn hasn't timed out yet.
		w.epoch.Add(1)
		jitter := time.Duration(rng.Int63n(int64(backoff)/2 + 1))
		select {
		case <-w.stopCh:
			return
		case <-time.After(backoff + jitter):
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// session runs one registration connection to completion: dial, register,
// await ack, heartbeat until error or stop.
func (w *Worker) session() error {
	d := net.Dialer{Timeout: w.cfg.Timeout}
	c, err := d.Dial("tcp", w.cfg.RouterAddr)
	if err != nil {
		return err
	}
	w.mu.Lock()
	w.conn = c
	w.mu.Unlock()
	defer func() {
		w.registered.Store(false)
		w.mu.Lock()
		if w.conn == c {
			w.conn = nil
		}
		w.mu.Unlock()
		c.Close()
	}()

	reg := &Message{Type: MsgRegister, WorkerID: w.cfg.WorkerID, Addr: w.cfg.Advertise, Epoch: w.epoch.Load()}
	if w.cfg.Load != nil {
		reg.Load = w.cfg.Load()
	}
	c.SetWriteDeadline(time.Now().Add(w.cfg.Timeout))
	if err := writeMessage(c, reg); err != nil {
		return fmt.Errorf("register write: %w", err)
	}
	br := bufio.NewReaderSize(c, 1<<10)
	c.SetReadDeadline(time.Now().Add(w.cfg.Timeout))
	ack, err := DecodeMessage(br)
	if err != nil {
		return fmt.Errorf("register ack: %w", err)
	}
	if ack.Type != MsgAck || !ack.OK {
		return fmt.Errorf("registration rejected: %s", ack.Detail)
	}
	w.registered.Store(true)
	w.logf("fabric: worker %s registered with router %s (epoch %d)", w.cfg.WorkerID, w.cfg.RouterAddr, w.epoch.Load())

	// The cluster transport's cadence: three beats per timeout window.
	tick := time.NewTicker(w.cfg.Timeout / 3)
	defer tick.Stop()
	for {
		select {
		case <-w.stopCh:
			return nil
		case <-tick.C:
		}
		hb := &Message{Type: MsgHeartbeat, WorkerID: w.cfg.WorkerID}
		if w.cfg.Load != nil {
			hb.Load = w.cfg.Load()
		}
		c.SetWriteDeadline(time.Now().Add(w.cfg.Timeout))
		if err := writeMessage(c, hb); err != nil {
			return fmt.Errorf("heartbeat write: %w", err)
		}
	}
}
