package core

import (
	"sync"
	"sync/atomic"

	"omnireduce/internal/metrics"
	"omnireduce/internal/obs"
	"omnireduce/internal/wire"
)

func init() {
	obs.RegisterPool("core_decode_state", DecodePoolBalance)
}

// decodeState is the reusable receive-side decode state of one driver
// loop: a packet shell, its float32 scratch arena, and a sparse packet
// shell. wire.DecodePacketView repopulates the shell and points float32
// block payloads straight at the receive buffer (carving them from the
// arena only where it cannot: half precision, a misaligned buffer, a
// big-endian host), so a loop that owns a decodeState decodes every
// inbound packet without allocating or copying payloads once the arena
// has grown to the working-set packet size.
//
// The decoded contents are valid only until the next decode with the same
// state, and dense payloads only while the receive buffer is held: the
// driver releases it after HandlePacket returns. That is exactly the
// lifetime protocol machines need, since they copy everything they keep
// during HandlePacket (see protocol.Msg ownership).
type decodeState struct {
	pkt     wire.Packet
	scratch []float32
	sparse  wire.SparsePacket
}

// decodeDense decodes buf into the reusable packet, recycling the scratch
// arena. Payloads may alias buf, which the caller must hold until it is
// done with the packet.
func (d *decodeState) decodeDense(buf []byte) (*wire.Packet, error) {
	arena, err := wire.DecodePacketView(&d.pkt, d.scratch, buf)
	if err != nil {
		return nil, err
	}
	d.scratch = arena
	return &d.pkt, nil
}

// decodeSparse decodes buf into the reusable sparse packet.
func (d *decodeState) decodeSparse(buf []byte) (*wire.SparsePacket, error) {
	if err := wire.DecodeSparsePacketInto(&d.sparse, buf); err != nil {
		return nil, err
	}
	return &d.sparse, nil
}

// decodePool recycles decodeStates across operations. Long-lived loops
// (the aggregator's shards) own one state for their lifetime; per-call
// loops (a worker's AllReduce goroutine) borrow one here so consecutive
// collectives reuse warmed arenas instead of re-growing them.
var decodePool sync.Pool

var decodePoolHits, decodePoolMisses, decodePoolPuts atomic.Int64

func getDecodeState() *decodeState {
	obs.Emit(obs.EvDecodeStateGet, 0, 0)
	if v := decodePool.Get(); v != nil {
		decodePoolHits.Add(1)
		return v.(*decodeState)
	}
	decodePoolMisses.Add(1)
	return &decodeState{}
}

func putDecodeState(d *decodeState) {
	decodePoolPuts.Add(1)
	obs.Emit(obs.EvDecodeStatePut, 0, 0)
	decodePool.Put(d)
}

// DecodePoolBalance reports cumulative borrow (get) and return (put)
// counts for the decode-state pool, registered with the obs pool-leak
// audit. Long-lived owners (aggregator shards) return their state at
// shutdown, so a quiesced system balances exactly.
func DecodePoolBalance() (gets, puts int64) {
	return decodePoolHits.Load() + decodePoolMisses.Load(), decodePoolPuts.Load()
}

// DecodePoolCounters exports the decode-state pool's tallies. After
// warm-up, hits should dominate: each miss is one fresh arena that has
// to re-grow to packet size.
func DecodePoolCounters() *metrics.Counters {
	c := metrics.NewCounters()
	c.Add("decode_pool_hits", decodePoolHits.Load())
	c.Add("decode_pool_misses", decodePoolMisses.Load())
	c.Add("decode_pool_puts", decodePoolPuts.Load())
	return c
}
