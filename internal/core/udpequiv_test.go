package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"omnireduce/internal/obs"
	"omnireduce/internal/transport"
)

// fabric builds one endpoint per configured aggregator and per worker
// (node IDs as in Config) on some transport.
type fabric func(t testing.TB, cfg Config) (aggConns, workerConns []transport.Conn)

// udpFabric builds a real UDP loopback cluster: every endpoint binds
// 127.0.0.1:0 and addresses are exchanged after binding (aggregators
// learn worker ports through RegisterPeer), so parallel tests never fight
// over fixed ports.
func udpFabric(t testing.TB, cfg Config) (aggConns, workerConns []transport.Conn) {
	var aggUDP []*transport.UDP
	for _, aggID := range cfg.Aggregators {
		conn, err := transport.NewUDP(aggID, map[int]string{aggID: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		aggUDP = append(aggUDP, conn)
		aggConns = append(aggConns, conn)
	}
	for i := 0; i < cfg.Workers; i++ {
		addrs := map[int]string{i: "127.0.0.1:0"}
		for j, aggID := range cfg.Aggregators {
			addrs[aggID] = aggUDP[j].Addr()
		}
		conn, err := transport.NewUDP(i, addrs)
		if err != nil {
			t.Fatal(err)
		}
		for _, ac := range aggUDP {
			if err := ac.RegisterPeer(i, conn.Addr()); err != nil {
				t.Fatal(err)
			}
		}
		workerConns = append(workerConns, conn)
	}
	return aggConns, workerConns
}

// channelFabric builds the in-process channel network.
func channelFabric(t testing.TB, cfg Config) (aggConns, workerConns []transport.Conn) {
	nw := transport.NewNetwork(cfg.Workers, 4096)
	for _, aggID := range cfg.Aggregators {
		aggConns = append(aggConns, nw.AddNode(aggID))
	}
	for i := 0; i < cfg.Workers; i++ {
		workerConns = append(workerConns, nw.Conn(i))
	}
	return aggConns, workerConns
}

// fabricCluster is a worker/aggregator deployment on one fabric whose
// teardown is explicit, so aggregator stats can be read after Run returns.
type fabricCluster struct {
	cfg      Config
	workers  []*Worker
	aggConns []transport.Conn
	aggs     []*Aggregator
	aggWG    sync.WaitGroup
	aggErr   chan error
}

func startFabricCluster(t testing.TB, cfg Config, fab fabric) *fabricCluster {
	t.Helper()
	cfg = cfg.withDefaults()
	if len(cfg.Aggregators) == 0 {
		cfg.Aggregators = []int{cfg.Workers}
	}
	c := &fabricCluster{cfg: cfg, aggErr: make(chan error, len(cfg.Aggregators))}
	aggConns, workerConns := fab(t, cfg)
	c.aggConns = aggConns
	for _, conn := range aggConns {
		agg, err := NewAggregator(conn, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.aggs = append(c.aggs, agg)
	}
	for _, conn := range workerConns {
		w, err := NewWorker(conn, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.workers = append(c.workers, w)
	}
	for _, agg := range c.aggs {
		c.aggWG.Add(1)
		go func(a *Aggregator) {
			defer c.aggWG.Done()
			if err := a.Run(); err != nil {
				c.aggErr <- err
			}
		}(agg)
	}
	return c
}

// shutdown tears the cluster down and returns the aggregator stats (only
// readable once Run has returned).
func (c *fabricCluster) shutdown(t testing.TB) []AggStats {
	t.Helper()
	for _, w := range c.workers {
		w.Close()
	}
	for _, conn := range c.aggConns {
		conn.Close()
	}
	c.aggWG.Wait()
	select {
	case err := <-c.aggErr:
		t.Fatalf("aggregator error: %v", err)
	default:
	}
	var as []AggStats
	for _, a := range c.aggs {
		as = append(as, a.Stats)
	}
	return as
}

// runOnce runs one AllReduce per worker over a fresh cluster on fab and
// returns the reduced tensors plus both sides' protocol counters after
// full teardown.
func runOnce(t testing.TB, cfg Config, fab fabric, inputs [][]float32) ([][]float32, []Stats, []AggStats) {
	t.Helper()
	c := startFabricCluster(t, cfg, fab)
	work := make([][]float32, len(inputs))
	for i := range inputs {
		work[i] = append([]float32(nil), inputs[i]...)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(c.workers))
	for i, w := range c.workers {
		wg.Add(1)
		go func(i int, w *Worker) {
			defer wg.Done()
			errs[i] = w.AllReduce(work[i])
		}(i, w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("AllReduce timed out")
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	var ws []Stats
	for _, w := range c.workers {
		ws = append(ws, w.Stats.Snapshot())
	}
	as := c.shutdown(t)
	return work, ws, as
}

// TestUDPChannelEquivalence drives the same seeded workload grid through
// real loopback UDP sockets and the in-process channel fabric and asserts
// they are indistinguishable above the transport: identical worker Stats
// (packets, blocks, bytes, retransmits — every counter), identical
// aggregator stats, and bit-identical results. Together with the drift
// tier's live ≡ sim equivalence this closes the chain
// live-UDP ≡ live-channel ≡ sim.
func TestUDPChannelEquivalence(t *testing.T) {
	audit := obs.StartLeakAudit()
	cases := []struct {
		workers  int
		sparsity float64
		fusion   int
	}{
		{workers: 2, sparsity: 0, fusion: 1},
		{workers: 2, sparsity: 0.5, fusion: 4},
		{workers: 3, sparsity: 0.9, fusion: 4},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("w%d_s%v_f%d", tc.workers, tc.sparsity, tc.fusion)
		t.Run(name, func(t *testing.T) {
			cfg := Config{
				Workers:     tc.workers,
				Aggregators: []int{tc.workers},
				BlockSize:   16,
				FusionWidth: tc.fusion,
				Reliable:    false,
				// Loopback with 8MB socket buffers does not drop these tiny
				// workloads; a generous timeout keeps the retransmit timer
				// from firing, so both fabrics see the exact same packets.
				RetransmitTimeout:  2 * time.Second,
				DeterministicOrder: true,
			}
			inputs := randomInputs(48*16, tc.workers, tc.sparsity, int64(61+tc.workers))
			want := expectedSum(inputs)

			chanRes, chanWS, chanAS := runOnce(t, cfg, channelFabric, inputs)
			udpRes, udpWS, udpAS := runOnce(t, cfg, udpFabric, inputs)

			checkResult(t, chanRes, want)
			for w := range udpRes {
				for i := range udpRes[w] {
					if udpRes[w][i] != chanRes[w][i] {
						t.Fatalf("worker %d element %d: udp %v != channel %v",
							w, i, udpRes[w][i], chanRes[w][i])
					}
				}
			}
			for w := range udpWS {
				if udpWS[w] != chanWS[w] {
					t.Errorf("worker %d stats diverge:\nudp:     %+v\nchannel: %+v",
						w, udpWS[w], chanWS[w])
				}
			}
			for a := range udpAS {
				if udpAS[a] != chanAS[a] {
					t.Errorf("aggregator %d stats diverge:\nudp:     %+v\nchannel: %+v",
						a, udpAS[a], chanAS[a])
				}
			}
		})
	}
	if leaks := audit.Settle(2 * time.Second); len(leaks) != 0 {
		t.Fatalf("equivalence grid leaked pooled buffers: %v", obs.LeaksErr(leaks))
	}
}
