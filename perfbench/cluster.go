package main

import (
	"errors"
	"fmt"
	"sync"

	"omnireduce"
	"omnireduce/internal/core"
	"omnireduce/internal/protocol"
	"omnireduce/internal/sparsity"
	"omnireduce/internal/transport"
)

// fabric names the transport a workload runs over.
type fabric int

const (
	fabricChan fabric = iota // in-process channel fabric, reliable (Algorithm 1)
	fabricUDP                // loopback UDP sockets, unreliable (Algorithm 2)
)

const (
	numWorkers = 2
	blockSize  = 256
	aggID      = numWorkers     // the primary aggregator's node ID
	standbyID  = numWorkers + 1 // the checkpoint standby's node ID
)

// workload is one benchmark input set and deployment.
type workload struct {
	name        string
	profile     *sparsity.Profile
	bucketBytes int // per worker
	fabric      fabric
	checkpoint  bool // epoch-1 view with a checkpoint-receiving standby
}

var workloads = []workload{
	{name: "dense-resnet152", profile: sparsity.ResNet152, bucketBytes: 25 << 20, fabric: fabricChan},
	{name: "sparse-deeplight", profile: sparsity.DeepLight, bucketBytes: 25 << 20, fabric: fabricChan},
	{name: "udp-ncf", profile: sparsity.NCF, bucketBytes: 4 << 20, fabric: fabricUDP},
	{name: "checkpoint-ncf", profile: sparsity.NCF, bucketBytes: 1 << 20, fabric: fabricChan, checkpoint: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// workerCounters is the subset of per-worker protocol counters the traced
// run turns into ratios.
type workerCounters struct {
	Packets, Retransmits, Results, StaleResults int64
}

func (c workerCounters) add(o workerCounters) workerCounters {
	return workerCounters{c.Packets + o.Packets, c.Retransmits + o.Retransmits, c.Results + o.Results, c.StaleResults + o.StaleResults}
}

func (c workerCounters) sub(o workerCounters) workerCounters {
	return workerCounters{c.Packets - o.Packets, c.Retransmits - o.Retransmits, c.Results - o.Results, c.StaleResults - o.StaleResults}
}

// cluster is a running deployment the closed loop drives: one AllReduce
// per worker goroutine, then Close.
type cluster interface {
	AllReduce(w int, data []float32) error
	Counters() workerCounters
	Close() error
}

// newCluster builds the workload's deployment: bound sockets, registered
// peers and, for the checkpoint workload, an attached standby.
func newCluster(wl workload) (cluster, error) {
	switch {
	case wl.checkpoint:
		return newCheckpointCluster()
	case wl.fabric == fabricUDP:
		return newUDPCluster()
	default:
		lc, err := omnireduce.NewLocalCluster(omnireduce.Options{Workers: numWorkers, BlockSize: blockSize})
		if err != nil {
			return nil, err
		}
		return localCluster{lc}, nil
	}
}

type localCluster struct{ lc *omnireduce.LocalCluster }

func (c localCluster) AllReduce(w int, data []float32) error { return c.lc.Worker(w).AllReduce(data) }
func (c localCluster) Counters() workerCounters {
	var sum workerCounters
	for w := 0; w < c.lc.Size(); w++ {
		sum = sum.add(publicCounters(c.lc.Worker(w).Stats()))
	}
	return sum
}
func (c localCluster) Close() error { return c.lc.Close() }

func publicCounters(s omnireduce.Stats) workerCounters {
	return workerCounters{s.PacketsSent, s.Retransmits, s.ResultsRecvd, s.StaleResults}
}

// udpCluster is two workers and one aggregator on loopback UDP through
// the public cross-process API, every socket bound to an ephemeral port.
type udpCluster struct {
	agg     *omnireduce.Aggregator
	workers []*omnireduce.Worker
	wg      sync.WaitGroup
	runErr  error
}

func newUDPCluster() (*udpCluster, error) {
	opts := omnireduce.Options{Workers: numWorkers, BlockSize: blockSize}
	agg, err := omnireduce.NewUDPAggregator(aggID, map[int]string{aggID: "127.0.0.1:0"}, opts)
	if err != nil {
		return nil, err
	}
	c := &udpCluster{agg: agg}
	c.wg.Add(1)
	go func() { defer c.wg.Done(); c.runErr = agg.Run() }()
	for i := 0; i < numWorkers; i++ {
		w, err := omnireduce.NewUDPWorker(i, map[int]string{i: "127.0.0.1:0", aggID: agg.Addr()}, opts)
		if err == nil {
			c.workers = append(c.workers, w)
			err = agg.RegisterPeer(i, w.Addr())
		}
		if err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

func (c *udpCluster) AllReduce(w int, data []float32) error { return c.workers[w].AllReduce(data) }
func (c *udpCluster) Counters() workerCounters {
	var sum workerCounters
	for _, w := range c.workers {
		sum = sum.add(publicCounters(w.Stats()))
	}
	return sum
}
func (c *udpCluster) Close() error {
	var err error
	for _, w := range c.workers {
		err = errors.Join(err, w.Close())
	}
	err = errors.Join(err, c.agg.Close())
	c.wg.Wait()
	return errors.Join(err, c.runErr)
}

// checkpointCluster runs at view epoch 1 on the channel fabric with a
// primary aggregator that streams slot-state checkpoints to one standby.
// The public LocalCluster has no standby, so it is assembled from the
// core drivers the public API wraps.
type checkpointCluster struct {
	workers []*core.Worker
	conns   []transport.Conn
	wg      sync.WaitGroup
	mu      sync.Mutex
	runErr  error
}

func newCheckpointCluster() (*checkpointCluster, error) {
	view := protocol.View{Epoch: 1, Aggregators: []int{aggID}}
	for w := 0; w < numWorkers; w++ {
		view.Workers = append(view.Workers, w)
	}
	base := core.Config{Workers: numWorkers, Aggregators: []int{aggID}, BlockSize: blockSize, Reliable: true, View: &view}
	primary, standby := base, base
	primary.CheckpointPeers = []int{standbyID}
	standby.Standby = true

	nw := transport.NewNetwork(numWorkers, 4096)
	c := &checkpointCluster{}
	for _, n := range []struct {
		id  int
		cfg core.Config
	}{{standbyID, standby}, {aggID, primary}} {
		conn := nw.AddNode(n.id)
		agg, err := core.NewAggregator(conn, n.cfg)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.conns = append(c.conns, conn)
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			if err := agg.Run(); err != nil {
				c.mu.Lock()
				c.runErr = errors.Join(c.runErr, err)
				c.mu.Unlock()
			}
		}()
	}
	for i := 0; i < numWorkers; i++ {
		w, err := core.NewWorker(nw.Conn(i), base)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("worker %d: %w", i, err)
		}
		c.workers = append(c.workers, w)
	}
	return c, nil
}

func (c *checkpointCluster) AllReduce(w int, data []float32) error {
	return c.workers[w].AllReduce(data)
}
func (c *checkpointCluster) Counters() workerCounters {
	var sum workerCounters
	for _, w := range c.workers {
		s := w.Stats.Snapshot()
		sum = sum.add(workerCounters{s.PacketsSent, s.Retransmits, s.ResultsRecvd, s.StaleResults})
	}
	return sum
}
func (c *checkpointCluster) Close() error {
	var err error
	for _, w := range c.workers {
		err = errors.Join(err, w.Close())
	}
	for _, conn := range c.conns {
		err = errors.Join(err, conn.Close())
	}
	c.wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	return errors.Join(err, c.runErr)
}
