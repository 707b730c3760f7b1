package main

import (
	"errors"
	"fmt"
	"time"

	"omnireduce/internal/protocol"
	"omnireduce/internal/transport"
	"omnireduce/internal/wire"
)

// fn is one public layer function the replay times.
type fn int

const (
	fnBitmap fn = iota
	fnWorkerStart
	fnWorkerPacket
	fnWorkerTimeout
	fnAggPacket
	fnCheckpoint
	fnEncode
	fnDecode
	fnSend
	fnRecv
	numFns
)

var fnNames = [numFns]string{
	fnBitmap:        "protocol.NewDenseView",
	fnWorkerStart:   "protocol.WorkerMachine.Start",
	fnWorkerPacket:  "protocol.WorkerMachine.HandlePacket",
	fnWorkerTimeout: "protocol.WorkerMachine.HandleTimeout",
	fnAggPacket:     "protocol.AggregatorMachine.HandlePacket",
	fnCheckpoint:    "protocol.AggregatorMachine.Checkpoint",
	fnEncode:        "protocol.Emit.Encode",
	fnDecode:        "wire.DecodePacketInto",
	fnSend:          "transport.Conn.Send",
	fnRecv:          "transport.Conn.Recv",
}

// span is one timed interval. Spans of one collective share Trace; a
// child names the span that caused it in Parent (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Node   int    `json:"node"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxKeptSpans bounds the individual spans kept in memory for the span
// file; per-function totals cover every call regardless.
const maxKeptSpans = 50000

// recorder keeps spans in memory and per-function totals.
type recorder struct {
	base  time.Time
	spans []span
	total [numFns]time.Duration
	calls [numFns]int64

	trace, root int // current collective and its root span
}

func (r *recorder) now() time.Duration { return time.Since(r.base) }

// add records a span; it is kept individually while there is room.
func (r *recorder) add(name string, parent, node int, t0, t1 time.Duration) int {
	id := len(r.spans) + 1
	if len(r.spans) < maxKeptSpans {
		r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: r.trace, Name: name, Node: node, Start: int64(t0), End: int64(t1)})
	}
	return id
}

// end closes a call to f on node that started at t0.
func (r *recorder) end(f fn, node int, t0 time.Duration) {
	t1 := r.now()
	r.total[f] += t1 - t0
	r.calls[f]++
	r.add(fnNames[f], r.root, node, t0, t1)
}

// decoder is one node's reusable decode state, as each core driver loop
// owns one.
type decoder struct {
	pkt     wire.Packet
	scratch []float32
}

// replay drives the layers' public functions from one goroutine in the
// order core calls them: the bitmap scan, the worker machines, the
// encoder, the workload's transport, the decoder and the aggregator
// machine (plus its checkpoint snapshot on the checkpoint workload).
type replay struct {
	cfg        protocol.Config
	checkpoint bool
	agg        *protocol.AggregatorMachine
	conns      [numWorkers + 1]transport.Conn
	dec        [numWorkers + 1]decoder
	wm         [numWorkers]*protocol.WorkerMachine
	eb         protocol.EmitBuf
	enc        []byte
	queue      []int // destination of every message in flight, in send order
	rec        *recorder
	tid        uint32

	ops                                int
	bytes, payload                     int64
	packets, blocksSent, blocksSkipped int64
}

func newReplay(wl workload, rec *recorder) (*replay, error) {
	cfg := protocol.Config{
		Workers:     numWorkers,
		Aggregators: []int{aggID},
		BlockSize:   blockSize,
		Reliable:    wl.fabric == fabricChan,
	}.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &replay{cfg: cfg, checkpoint: wl.checkpoint, agg: protocol.NewAggregatorMachine(cfg, aggID), rec: rec}
	if wl.fabric == fabricChan {
		nw := transport.NewNetwork(numWorkers, 4096)
		for w := 0; w < numWorkers; w++ {
			r.conns[w] = nw.Conn(w)
		}
		r.conns[aggID] = nw.AddNode(aggID)
		return r, nil
	}
	for id := range r.conns {
		u, err := transport.NewUDP(id, map[int]string{id: "127.0.0.1:0"})
		if err != nil {
			r.close()
			return nil, err
		}
		r.conns[id] = u
	}
	a := r.conns[aggID].(*transport.UDP)
	for w := 0; w < numWorkers; w++ {
		u := r.conns[w].(*transport.UDP)
		if err := errors.Join(u.RegisterPeer(aggID, a.Addr()), a.RegisterPeer(w, u.Addr())); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

func (r *replay) close() {
	for _, c := range r.conns {
		if c != nil {
			c.Close()
		}
	}
	r.agg.Release()
}

// op reduces bufs (one per worker) in place, exactly as one live
// collective would.
func (r *replay) op(bufs [][]float32) error {
	r.tid++
	r.rec.trace++
	t0 := r.rec.now()
	r.rec.root = r.rec.add("replay.AllReduce", 0, -1, t0, t0)
	defer func() {
		if r.rec.root <= len(r.rec.spans) {
			r.rec.spans[r.rec.root-1].End = int64(r.rec.now())
		}
	}()
	// A lost datagram would block Recv forever; closing the sockets turns
	// that into an error.
	guard := time.AfterFunc(30*time.Second, func() {
		for _, c := range r.conns {
			c.Close()
		}
	})
	defer guard.Stop()

	start := time.Now()
	views := make([]*protocol.DenseView, numWorkers)
	for w := range views {
		t := r.rec.now()
		views[w] = protocol.NewDenseView(bufs[w], blockSize, false)
		r.rec.end(fnBitmap, w, t)
	}
	for w := range r.wm {
		r.wm[w] = protocol.GetWorkerMachine(r.cfg, w, r.tid)
	}
	defer func() {
		for w, m := range r.wm {
			s := m.Stats()
			r.packets += s.PacketsSent
			r.blocksSent += s.BlocksSent
			r.blocksSkipped += s.BlocksSkipped
			m.Recycle()
			r.wm[w] = nil
		}
	}()
	for w, m := range r.wm {
		r.eb.Reset()
		t := r.rec.now()
		m.Start(views[w], time.Since(start), &r.eb)
		r.rec.end(fnWorkerStart, w, t)
		if err := r.send(w); err != nil {
			return err
		}
	}
	lastTick := time.Since(start)
	for len(r.queue) > 0 {
		dst := r.queue[0]
		r.queue = r.queue[1:]
		t := r.rec.now()
		msg, err := r.conns[dst].Recv()
		r.rec.end(fnRecv, dst, t)
		if err != nil {
			return fmt.Errorf("replay recv at node %d: %w", dst, err)
		}
		d := &r.dec[dst]
		t = r.rec.now()
		d.scratch, err = wire.DecodePacketInto(&d.pkt, d.scratch, msg.Data)
		r.rec.end(fnDecode, dst, t)
		transport.PutBuf(msg.Data)
		if err != nil {
			return fmt.Errorf("replay decode at node %d: %w", dst, err)
		}
		r.eb.Reset()
		t = r.rec.now()
		if dst == aggID {
			err = r.agg.HandlePacket(protocol.Msg{Dense: &d.pkt}, &r.eb)
			r.rec.end(fnAggPacket, dst, t)
			if err == nil && r.checkpoint && r.eb.Len() > 0 {
				t = r.rec.now()
				r.agg.Checkpoint()
				r.rec.end(fnCheckpoint, dst, t)
			}
		} else {
			err = r.wm[dst].HandlePacket(&d.pkt, time.Since(start), &r.eb)
			r.rec.end(fnWorkerPacket, dst, t)
		}
		if err != nil {
			return fmt.Errorf("replay node %d: %w", dst, err)
		}
		if err := r.send(dst); err != nil {
			return err
		}
		// Unreliable mode: the retransmission ticks core runs every half
		// timeout.
		if now := time.Since(start); !r.cfg.Reliable && now-lastTick >= r.cfg.RetransmitTimeout/2 {
			lastTick = now
			for w, m := range r.wm {
				if m.Done() {
					continue
				}
				r.eb.Reset()
				t := r.rec.now()
				err := m.HandleTimeout(now, &r.eb)
				r.rec.end(fnWorkerTimeout, w, t)
				if err = errors.Join(err, r.send(w)); err != nil {
					return err
				}
			}
		}
	}
	for w, m := range r.wm {
		if !m.Done() {
			return fmt.Errorf("replay: worker %d not done with no message in flight", w)
		}
	}
	r.ops++
	return nil
}

// send encodes and transmits the emits of the machine on node src. Like
// core's transmit batch on the aggregator, a multicast packet is encoded
// once for all its destinations.
func (r *replay) send(src int) error {
	var last *wire.Packet
	var payload int64
	for i := range r.eb.Emits() {
		e := &r.eb.Emits()[i]
		if src != aggID || e.Packet != last {
			t := r.rec.now()
			r.enc = e.Encode(r.enc[:0])
			r.rec.end(fnEncode, src, t)
			last, payload = e.Packet, 0
			for _, b := range e.Packet.Blocks {
				payload += 4 * int64(len(b.Data))
			}
		}
		t := r.rec.now()
		err := r.conns[src].Send(e.Dst, r.enc)
		r.rec.end(fnSend, src, t)
		if err != nil {
			return fmt.Errorf("replay send %d->%d: %w", src, e.Dst, err)
		}
		r.queue = append(r.queue, e.Dst)
		r.bytes += int64(len(r.enc))
		r.payload += payload
	}
	return nil
}

// layerMs is the replay's time per collective in the given functions.
func (r *replay) layerMs(fs ...fn) float64 {
	var d time.Duration
	for _, f := range fs {
		d += r.rec.total[f]
	}
	return ms(d) / float64(max(r.ops, 1))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
