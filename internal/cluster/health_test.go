package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// probeTarget is a one-shard replica whose health endpoint answers at
// generation 7 until stall is set; from then on each probe blocks until
// its request is cancelled.
type probeTarget struct {
	srv     *httptest.Server
	stall   atomic.Bool
	started chan struct{}
}

func newProbeTarget(t *testing.T) *probeTarget {
	// Room for every stalled probe a test makes, so the handler never
	// blocks on a tick nobody reads.
	p := &probeTarget{started: make(chan struct{}, 8)}
	p.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if p.stall.Load() {
			p.started <- struct{}{}
			<-r.Context().Done()
			return
		}
		json.NewEncoder(w).Encode(HealthResponse{Shard: 0, Shards: 1, Generation: 7})
	}))
	t.Cleanup(p.srv.Close)
	return p
}

// upGateway probes p once, healthy, and returns the gateway with the
// replica up at generation 7.
func (p *probeTarget) upGateway(t *testing.T, healthTimeout time.Duration) *Gateway {
	t.Helper()
	g, err := NewGateway(GatewayConfig{
		Topology:      Topology{Format: TopologyFormat, Shards: []ShardSpec{{Replicas: []string{p.srv.URL}}}},
		Client:        &http.Client{}, // no flat timeout: HealthTimeout and ctx govern
		HealthTimeout: healthTimeout,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.CheckNow(context.Background())
	if h := g.Health(); !h.Replicas[0].Up || h.Replicas[0].Generation != 7 {
		t.Fatalf("replica not up at generation 7 after a healthy probe: %+v", h.Replicas[0])
	}
	return g
}

// TestHealthProbeCancelledKeepsReplicaState: a probe cut short by the
// caller (health loop shutting down) says nothing about the replica.
func TestHealthProbeCancelledKeepsReplicaState(t *testing.T) {
	p := newProbeTarget(t)
	g := p.upGateway(t, time.Minute)
	before := g.Health()

	p.stall.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		g.CheckNow(ctx)
		close(done)
	}()
	waitTick(t, p.started, "stalled probe")
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled probe did not return")
	}
	if after := g.Health(); !reflect.DeepEqual(after, before) {
		t.Fatalf("cancelled probe changed the health view:\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestHealthProbeTimeoutMarksReplicaDown: the probe's own deadline
// expiring is the replica's fault.
func TestHealthProbeTimeoutMarksReplicaDown(t *testing.T) {
	p := newProbeTarget(t)
	g := p.upGateway(t, 50*time.Millisecond)

	p.stall.Store(true)
	g.CheckNow(context.Background())
	if r := g.Health().Replicas[0]; r.Up {
		t.Fatalf("replica still up after its probe timed out: %+v", r)
	}
}
