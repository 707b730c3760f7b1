package core

import (
	"omnireduce/internal/obs"
	"omnireduce/internal/protocol"
	"omnireduce/internal/transport"
	"omnireduce/internal/wire"
)

// txBatchMax is the most packets a driver accumulates before forcing a
// flush; it bounds how much encoded data sits buffered.
const txBatchMax = 64

// txBatch is a driver's reusable transmit state: an encode arena plus the
// batch of outgoing datagrams carved from it, handed to the transport one
// Send each when the batch flushes. Allocated once per driver loop —
// a worker's persistent opState or an aggregator (shard) — and reused
// for every emit burst, so the steady-state transmit path allocates
// nothing.
//
// Emitted packets are machine-owned and read-only (see protocol.Emit);
// batching delays the Send, not the Encode, so the ownership story is
// unchanged: every emit is encoded into the arena before sendEmits
// returns, and the transport releases the buffers the moment the flush
// call returns.
type txBatch struct {
	// observe is called once per transmitted packet with its tensor ID
	// and encoded size; package-level funcs only (no closure captures).
	observe func(tid uint32, n int)
	// flushFull/flushEnd count why each flush happened: the batch filled
	// up mid-burst, or the burst ended. A full-heavy mix means emits come
	// in windows larger than txBatchMax; an end-heavy mix means bursts
	// are small.
	flushFull *obs.Counter
	flushEnd  *obs.Counter
	// dedup enables encode-once for consecutive emits sharing a packet
	// (aggregator result multicasts). Only safe when the machine
	// guarantees pointer-equal packets have identical contents, which the
	// aggregator's multicast fan-out does; worker machines keep it off.
	dedup bool
	// resolve, when set, maps an emit's destination — the machine speaks
	// job-relative worker IDs — to a transport node ID using the emit's
	// tensor ID. Multi-tenant aggregators route named jobs' results to
	// the nodes their workers registered from; nil keeps the historic
	// identity mapping (worker ID == node ID).
	resolve func(tid uint32, dst int) int

	enc  []byte
	outs []outgoing
}

// outgoing is one queued datagram: its destination node, the tensor it
// belongs to (for per-packet observation) and its bytes in the arena.
type outgoing struct {
	to   int
	tid  uint32
	data []byte
}

// emitTID extracts the tensor ID an emit belongs to, for per-packet
// observation.
func emitTID(e *protocol.Emit) uint32 {
	if e.Packet != nil {
		return e.Packet.TensorID
	}
	if e.Sparse != nil {
		return e.Sparse.TensorID
	}
	return 0
}

// sendEmits encodes one emit burst into the arena and transmits it in
// batches. The arena is presized from the emits' exact encoded sizes
// (Emit.Size) so appends never reallocate — reallocation would invalidate
// the outgoing sub-slices already queued for the flush.
func (b *txBatch) sendEmits(conn transport.Conn, emits []protocol.Emit) error {
	if len(emits) == 0 {
		return nil
	}
	total := 0
	for i := range emits {
		total += emits[i].Size
	}
	if cap(b.enc) < total {
		b.enc = make([]byte, 0, total)
	} else {
		b.enc = b.enc[:0]
	}
	arena := cap(b.enc)
	b.outs = b.outs[:0]
	var lastPkt *wire.Packet
	var lastSparse *wire.SparsePacket
	var lastData []byte
	for i := range emits {
		e := &emits[i]
		data := lastData
		if !b.dedup || lastData == nil || e.Packet != lastPkt || e.Sparse != lastSparse {
			off := len(b.enc)
			b.enc = e.Encode(b.enc)
			data = b.enc[off:len(b.enc):len(b.enc)]
			lastPkt, lastSparse, lastData = e.Packet, e.Sparse, data
		}
		tid, dst := emitTID(e), e.Dst
		if b.resolve != nil {
			dst = b.resolve(tid, dst)
		}
		b.outs = append(b.outs, outgoing{to: dst, tid: tid, data: data})
		if len(b.outs) >= txBatchMax {
			if err := b.flush(conn, b.flushFull); err != nil {
				return err
			}
		}
	}
	if cap(b.enc) != arena {
		// Emit.Size understated an encoding and the arena grew, orphaning
		// every already-queued sub-slice. This is an encoder/Size bug; fail
		// loudly rather than transmit stale bytes.
		panic("core: emit Size smaller than its encoding")
	}
	return b.flush(conn, b.flushEnd)
}

// flush transmits the queued batch in order and records per-packet
// observations. An error may leave a prefix sent (datagram semantics: the
// unsent tail is indistinguishable from in-flight loss).
func (b *txBatch) flush(conn transport.Conn, reason *obs.Counter) error {
	if len(b.outs) == 0 {
		return nil
	}
	for _, o := range b.outs {
		if err := conn.Send(o.to, o.data); err != nil {
			return err
		}
	}
	reason.Inc()
	for _, o := range b.outs {
		b.observe(o.tid, len(o.data))
	}
	b.outs = b.outs[:0]
	return nil
}
