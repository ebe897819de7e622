package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"octgb/internal/obs"
	"octgb/internal/testutil"
)

// TestTCPObserverRecordsCollectives covers the transport side of the
// observability wiring: a meshed TCP group running with WithObserver must
// record per-kind collective latency/bytes and, once the heartbeat writers
// have been alive for a few periods, heartbeat inter-arrival gaps — and
// the whole registry must render as valid exposition.
func TestTCPObserverRecordsCollectives(t *testing.T) {
	defer testutil.Watchdog(t, 0)()
	ob := obs.New()
	timeout := 300 * time.Millisecond
	opts := []TCPOption{WithObserver(ob), WithCommTimeout(timeout), WithMesh()}
	errs := startTCPGroupOpts(t, 3, opts, func(c Comm) error {
		buf := []float64{float64(c.Rank() + 1)}
		if err := c.AllreduceSum(buf); err != nil {
			return err
		}
		if buf[0] != 6 {
			return fmt.Errorf("allreduce: got %v, want 6", buf[0])
		}
		counts := []int{1, 1, 1}
		if err := c.Allgatherv([]float64{float64(c.Rank())}, counts, make([]float64, 3)); err != nil {
			return err
		}
		// Sit past several heartbeat periods (timeout/3) so inter-arrival
		// gaps get recorded before the final rendezvous.
		time.Sleep(timeout)
		return rendezvous(c)
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}

	var sb strings.Builder
	if err := ob.Reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"octgb_cluster_collective_seconds",
		"octgb_cluster_collective_bytes_total",
		`kind="allreduce"`,
		`kind="allgatherv"`,
		"octgb_cluster_heartbeat_gap_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("TCP-transport metrics missing %q", want)
		}
	}
	if err := obs.ValidateExposition(strings.NewReader(out)); err != nil {
		t.Errorf("TCP-transport metrics render invalid exposition: %v", err)
	}
}
