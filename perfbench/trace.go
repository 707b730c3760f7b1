package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"omnireduce/internal/obs"
	"omnireduce/internal/obs/timeline"
	"omnireduce/internal/transport"
)

// Shares of --seconds given to the traced run's three parts.
const (
	untracedShare = 0.40
	tracedShare   = 0.35
	replayShare   = 0.25
)

// flightPerShard is the flight recorder's ring size per shard: several
// dense collectives' worth of slot events.
const flightPerShard = 1 << 16

// countTracer tallies every trace event and sums its argument.
type countTracer struct {
	n, arg [obs.NumEvents]atomic.Int64
}

func (t *countTracer) Trace(ev obs.Event, _ uint32, arg int64) {
	if ev < obs.NumEvents {
		t.n[ev].Add(1)
		t.arg[ev].Add(arg)
	}
}

// counterNames are the obs.Default counters whose deltas feed per-layer
// metrics.
var counterNames = []string{
	"worker_pump_overflow_drops", "worker_pump_stale_drops",
	"agg_sched_drops", "agg_late_drops", "agg_ck_frames_sent",
	"udp_rx_batches", "udp_rx_batch_dgrams", "udp_tx_batches", "udp_tx_batch_dgrams", "udp_tx_partial_writes",
	"worker_tx_flush_end", "worker_tx_flush_full", "agg_tx_flush_end", "agg_tx_flush_full",
}

// counterSnap is a point-in-time read of the counters a traced run
// differences.
type counterSnap struct {
	obs               map[string]int64
	poolHit, poolMiss int64
	workers           workerCounters
	mem               runtime.MemStats
}

func snapCounters(c cluster) counterSnap {
	s := counterSnap{obs: map[string]int64{}, workers: c.Counters()}
	for _, n := range counterNames {
		s.obs[n] = obs.Default.Counter(n).Load()
	}
	pc := transport.PoolCounters()
	s.poolHit, s.poolMiss = pc.Get("buf_pool_hits"), pc.Get("buf_pool_misses")
	runtime.ReadMemStats(&s.mem)
	return s
}

func (s counterSnap) delta(before counterSnap, name string) float64 {
	return float64(s.obs[name] - before.obs[name])
}

func (s counterSnap) flushes(before counterSnap) float64 {
	return s.delta(before, "worker_tx_flush_end") + s.delta(before, "worker_tx_flush_full") +
		s.delta(before, "agg_tx_flush_end") + s.delta(before, "agg_tx_flush_full")
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tracedRun measures the per-layer metrics: an untraced live phase (CPU,
// counter and allocation deltas), a traced live phase (spans, flight
// recorder, event tallies) and the single-goroutine layer replay.
func tracedRun(o options, res *result, log io.Writer) (err error) {
	total := seconds(o.seconds)
	l, _, warm, err := start(o, 1, log)
	res.Attempted += warm.attempted
	res.Failed += warm.failed
	if err != nil {
		return err
	}
	defer func() {
		if cerr := l.c.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("close: %w", cerr)
		}
		l.stop()
	}()

	before := snapCounters(l.c)
	un, err := timedPhase(l, time.Duration(untracedShare*float64(total)), false)
	res.Attempted += un.attempted
	res.Failed += un.failed
	if err != nil {
		return err
	}
	after := snapCounters(l.c)

	fr := obs.NewFlightRecorder(-1, flightPerShard)
	ct := &countTracer{}
	prev := obs.SetTracer(obs.MultiTracer{fr, ct})
	flush0 := snapCounters(l.c)
	tr, err := timedPhase(l, time.Duration(tracedShare*float64(total)), false)
	flush1 := snapCounters(l.c)
	obs.SetTracer(prev)
	res.Attempted += tr.attempted
	res.Failed += tr.failed
	if err != nil {
		return err
	}

	rec := &recorder{base: l.base}
	api := "omnireduce.Worker.AllReduce"
	if o.wl.checkpoint {
		api = "core.Worker.AllReduce"
	}
	var opMs, stragglerMs []float64
	for _, s := range tr.samples {
		rec.trace++
		root := rec.add("collective", 0, -1, s.Start, s.Start+s.latency())
		for w, r := range s.Returns {
			rec.add(api, root, w, s.Start, r)
			opMs = append(opMs, ms(r-s.Start))
		}
		stragglerMs = append(stragglerMs, ms(s.straggler()))
	}
	dump := fr.Dump()
	var kept int64
	for _, ev := range obs.DefaultFlightKeep {
		kept += ct.n[ev].Load()
	}
	tl, err := timeline.Merge(&dump)
	if err != nil {
		return fmt.Errorf("timeline: %w", err)
	}
	occupancy, roundP50 := slotMetrics(tl, kept > int64(len(dump.Records)))

	rp, err := newReplay(o.wl, rec)
	if err != nil {
		return fmt.Errorf("replay set-up: %w", err)
	}
	defer rp.close()
	bufs := make([][]float32, len(l.inputs))
	for w := range bufs {
		bufs[w] = append([]float32(nil), l.inputs[w]...)
	}
	start := time.Now()
	for rp.ops == 0 || time.Since(start) < time.Duration(replayShare*float64(total)) {
		if err := rp.op(bufs); err != nil {
			return err
		}
		for w := range bufs {
			if err := l.check(bufs, w); err != nil {
				return errWrong{fmt.Errorf("replay: %w", err)}
			}
		}
		for w := range bufs {
			l.restore(bufs, w)
		}
	}

	n := float64(len(un.samples))
	nt := float64(len(tr.samples))
	rops := float64(rp.ops)
	dw := after.workers.sub(before.workers)
	layerTotal := rp.layerMs(fnBitmap, fnWorkerStart, fnWorkerPacket, fnWorkerTimeout, fnAggPacket, fnCheckpoint, fnEncode, fnDecode, fnSend, fnRecv)
	m := res.Metrics
	m["tensor.bitmap_ms_per_op"] = metric{rp.layerMs(fnBitmap), "ms"}
	m["protocol.worker_ms_per_op"] = metric{rp.layerMs(fnWorkerStart, fnWorkerPacket, fnWorkerTimeout), "ms"}
	m["protocol.agg_ms_per_op"] = metric{rp.layerMs(fnAggPacket), "ms"}
	m["protocol.checkpoint_ms_per_op"] = metric{rp.layerMs(fnCheckpoint), "ms"}
	m["wire.encode_ms_per_op"] = metric{rp.layerMs(fnEncode), "ms"}
	m["wire.decode_ms_per_op"] = metric{rp.layerMs(fnDecode), "ms"}
	m["transport.send_ms_per_op"] = metric{rp.layerMs(fnSend), "ms"}
	m["transport.recv_ms_per_op"] = metric{rp.layerMs(fnRecv), "ms"}
	m["wire.bytes_per_op"] = metric{float64(rp.bytes) / rops, "B"}
	m["wire.payload_ratio"] = metric{ratio(float64(rp.payload), float64(rp.bytes)), "ratio"}
	m["protocol.packets_per_op"] = metric{float64(rp.packets) / rops, "count"}
	m["protocol.blocks_sent_per_op"] = metric{float64(rp.blocksSent) / rops, "count"}
	m["protocol.blocks_skipped_per_op"] = metric{float64(rp.blocksSkipped) / rops, "count"}
	m["protocol.skip_ratio"] = metric{ratio(float64(rp.blocksSkipped), float64(rp.blocksSent+rp.blocksSkipped)), "ratio"}
	m["protocol.retransmit_ratio"] = metric{ratio(float64(dw.Retransmits), float64(dw.Packets)), "ratio"}
	m["protocol.stale_result_ratio"] = metric{ratio(float64(dw.StaleResults), float64(dw.Results)), "ratio"}
	m["protocol.slot_occupancy"] = metric{occupancy, "ratio"}
	m["protocol.slot_round_p50_us"] = metric{roundP50, "us"}
	m["core.ck_frames_per_op"] = metric{after.delta(before, "agg_ck_frames_sent") / n, "count"}
	m["core.ck_bytes_per_op"] = metric{float64(ct.arg[obs.EvCheckpoint].Load()) / nt, "B"}
	m["transport.udp_rx_batch_mean"] = metric{ratio(after.delta(before, "udp_rx_batch_dgrams"), after.delta(before, "udp_rx_batches")), "count"}
	m["transport.udp_tx_batch_mean"] = metric{ratio(after.delta(before, "udp_tx_batch_dgrams"), after.delta(before, "udp_tx_batches")), "count"}
	m["transport.udp_tx_partial_writes"] = metric{after.delta(before, "udp_tx_partial_writes") / n, "count"}
	hits, misses := float64(after.poolHit-before.poolHit), float64(after.poolMiss-before.poolMiss)
	m["transport.pool_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	m["core.op_ms_p50"] = metric{median(opMs), "ms"}
	m["core.straggler_ms_p50"] = metric{median(stragglerMs), "ms"}
	m["core.pump_overflow_drops_per_op"] = metric{after.delta(before, "worker_pump_overflow_drops") / n, "count"}
	m["core.pump_stale_drops_per_op"] = metric{after.delta(before, "worker_pump_stale_drops") / n, "count"}
	m["core.tx_packets_per_flush"] = metric{ratio(float64(ct.n[obs.EvPacketSent].Load()), flush1.flushes(flush0)), "count"}
	m["core.self_ms_per_op"] = metric{un.cpuMsPerOp() - layerTotal, "ms"}
	m["tenant.sched_drops_per_op"] = metric{after.delta(before, "agg_sched_drops") / n, "count"}
	m["tenant.late_drops_per_op"] = metric{after.delta(before, "agg_late_drops") / n, "count"}
	m["runtime.allocs_per_op"] = metric{float64(after.mem.Mallocs-before.mem.Mallocs) / n, "count"}
	m["runtime.alloc_bytes_per_op"] = metric{float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / n, "B"}
	m["runtime.gc_per_op"] = metric{float64(after.mem.NumGC-before.mem.NumGC) / n, "count"}
	m["obs.trace_overhead_ratio"] = metric{tr.mbps(o.wl) / un.mbps(o.wl), "ratio"}

	fmt.Fprintf(log, "live: %d untraced + %d traced collectives; replay: %d collectives\n", len(un.samples), len(tr.samples), rp.ops)
	fmt.Fprintf(log, "replay layer total %.3f ms/op beside live cpu %.3f ms/op: %.3f ms/op (%.1f%%) not attributed to a layer\n",
		layerTotal, un.cpuMsPerOp(), un.cpuMsPerOp()-layerTotal, 100*ratio(un.cpuMsPerOp()-layerTotal, un.cpuMsPerOp()))
	printMetrics(log, m)

	path, err := writeSpans(o, rec, tl, m)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	fmt.Fprintf(log, "spans: %s\n", path)
	return nil
}

// slotMetrics derives slot occupancy and the median round time from the
// flight-recorder timeline. Occupancy is taken per collective: the busy
// share of its lanes between its first issue and last completion, so the
// gaps between collectives do not count. When the recorder's rings
// wrapped, the two oldest collectives may be clipped and are left out.
func slotMetrics(tl *timeline.Timeline, wrapped bool) (occupancy, roundP50us float64) {
	// Lanes are sorted by tensor ID, and tensor IDs grow collective by
	// collective; those below first are left out.
	var first uint32
	if wrapped {
		var tids []uint32
		for _, ln := range tl.Lanes {
			if len(tids) == 0 || tids[len(tids)-1] != ln.Tid {
				tids = append(tids, ln.Tid)
			}
		}
		if len(tids) > 2 {
			first = tids[2]
		}
	}
	type win struct {
		lo, hi, busy int64
		lanes        int64
	}
	byTid := map[uint32]*win{}
	var rounds []float64
	for _, ln := range tl.Lanes {
		if ln.Tid < first {
			continue
		}
		w := byTid[ln.Tid]
		if w == nil {
			w = &win{lo: -1}
			byTid[ln.Tid] = w
		}
		w.lanes++
		w.busy += ln.Busy
		for _, s := range ln.Spans {
			if s.End < 0 {
				continue
			}
			if w.lo < 0 || s.Start < w.lo {
				w.lo = s.Start
			}
			w.hi = max(w.hi, s.End)
			if s.End > s.Start {
				rounds = append(rounds, float64(s.End-s.Start)/1e3)
			}
		}
	}
	var sum, n float64
	for _, w := range byTid {
		if w.lo >= 0 && w.hi > w.lo {
			sum += float64(w.busy) / float64(w.lanes*(w.hi-w.lo))
			n++
		}
	}
	return ratio(sum, n), median(rounds)
}

// writeSpans writes the traced run's spans, per-function replay totals,
// the timeline summary and the per-layer metrics to one JSON file.
func writeSpans(o options, rec *recorder, tl *timeline.Timeline, m map[string]metric) (string, error) {
	type fnTotal struct {
		Name  string  `json:"name"`
		Calls int64   `json:"calls"`
		Ms    float64 `json:"total_ms"`
	}
	var totals []fnTotal
	for f := fn(0); f < numFns; f++ {
		totals = append(totals, fnTotal{fnNames[f], rec.calls[f], ms(rec.total[f])})
	}
	rep := tl.Report(0)
	rep.Slots = nil
	doc := struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Hardware string            `json:"hardware"`
		Metrics  map[string]metric `json:"metrics"`
		Replay   []fnTotal         `json:"replay_totals"`
		Timeline timeline.Report   `json:"timeline"`
		Spans    []span            `json:"spans"`
	}{o.wl.name, o.seed, hardwareStamp(), m, totals, rep, rec.spans}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(o.out, o.wl.name+".spans.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
