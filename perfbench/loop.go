package main

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// phase is one step a worker goroutine runs on command.
type phase int

const (
	phaseReduce  phase = iota // AllReduce the working buffer (timed)
	phaseCheck                // compare the output to the reference and worker 0
	phaseRestore              // copy the pristine input back
)

// opSample is one timed collective: the release instant and every
// worker's return, as offsets from the loop's base time.
type opSample struct {
	Start   time.Duration
	Returns []time.Duration
}

func (s opSample) latency() time.Duration {
	var last time.Duration
	for _, r := range s.Returns {
		last = max(last, r)
	}
	return last - s.Start
}

// straggler is the collective's latency minus the fastest worker's.
func (s opSample) straggler() time.Duration {
	first := s.Returns[0]
	for _, r := range s.Returns[1:] {
		first = min(first, r)
	}
	return s.latency() - (first - s.Start)
}

// loop is the synchronous data-parallel trainer: one goroutine per
// worker, released together by a barrier, with one collective in flight.
// Restoring the inputs and checking the outputs run between collectives,
// outside the latency and CPU windows.
type loop struct {
	c       cluster
	inputs  [][]float32 // pristine per-worker gradients
	bufs    [][]float32 // working buffers the collective overwrites
	ref     []float32
	nonZero []bool // per block: non-zero at some worker
	base    time.Time

	cmd  []chan phase
	done chan workerDone

	// plain, when set, is the yardstick reduction plainStep runs.
	plain *plainReduce

	// hook, when set, runs on a worker's output right after its
	// AllReduce returns (tests use it to corrupt a result).
	hook func(w int, out []float32)
}

type workerDone struct {
	w   int
	at  time.Duration
	err error
}

func newLoop(c cluster, inputs [][]float32, ref []float32) *loop {
	l := &loop{c: c, inputs: inputs, ref: ref, base: time.Now(), done: make(chan workerDone, len(inputs))}
	n := len(ref)
	for lo := 0; lo < n; lo += blockSize {
		nz := false
		for _, in := range inputs {
			nz = nz || slices.ContainsFunc(in[lo:min(lo+blockSize, n)], func(v float32) bool { return v != 0 })
		}
		l.nonZero = append(l.nonZero, nz)
	}
	for w := range inputs {
		l.bufs = append(l.bufs, append([]float32(nil), inputs[w]...))
		ch := make(chan phase)
		l.cmd = append(l.cmd, ch)
		go l.worker(w, ch)
	}
	return l
}

// stop ends the worker goroutines and closes the plain reduction.
func (l *loop) stop() {
	for _, ch := range l.cmd {
		close(ch)
	}
	if l.plain != nil {
		l.plain.close()
	}
}

func (l *loop) worker(w int, cmd <-chan phase) {
	for ph := range cmd {
		var err error
		switch ph {
		case phaseReduce:
			err = l.c.AllReduce(w, l.bufs[w])
			at := time.Since(l.base)
			if err == nil && l.hook != nil {
				l.hook(w, l.bufs[w])
			}
			l.done <- workerDone{w, at, err}
			continue
		case phaseCheck:
			err = l.check(l.bufs, w)
		case phaseRestore:
			l.restore(l.bufs, w)
		}
		l.done <- workerDone{w: w, err: err}
	}
}

// broadcast runs one phase on every worker and waits for all of them;
// it returns each worker's completion and the first error.
func (l *loop) broadcast(ph phase) ([]workerDone, error) {
	for _, ch := range l.cmd {
		ch <- ph
	}
	out := make([]workerDone, len(l.cmd))
	var first error
	for range l.cmd {
		d := <-l.done
		out[d.w] = d
		if d.err != nil && first == nil {
			first = d.err
		}
	}
	return out, first
}

// errWrong marks a collective whose output failed the correctness check.
type errWrong struct{ err error }

func (e errWrong) Error() string { return "wrong result: " + e.err.Error() }

// step runs one collective and its check: release, wait for every
// worker's return, then verify and restore. cpu is the process CPU time
// spent inside the collective window.
func (l *loop) step() (s opSample, cpu time.Duration, err error) {
	cpu0 := processCPU()
	s.Start = time.Since(l.base)
	done, rerr := l.broadcast(phaseReduce)
	cpu = processCPU() - cpu0
	for _, d := range done {
		s.Returns = append(s.Returns, d.at)
	}
	if rerr != nil {
		return s, cpu, rerr
	}
	if _, cerr := l.broadcast(phaseCheck); cerr != nil {
		return s, cpu, errWrong{cerr}
	}
	_, err = l.broadcast(phaseRestore)
	return s, cpu, err
}

// plainStep runs the plain reduction on the working buffers, then checks
// and restores them as step does, and returns the reduction's wall
// and CPU time. A wrong plain result is the benchmark's own fault, so it
// is not an errWrong.
func (l *loop) plainStep() (wall, cpu time.Duration, err error) {
	cpu0 := processCPU()
	t0 := time.Now()
	err = l.plain.reduce(l.bufs)
	wall = time.Since(t0)
	cpu = processCPU() - cpu0
	if err != nil {
		return wall, cpu, fmt.Errorf("plain reduction: %w", err)
	}
	if _, err := l.broadcast(phaseCheck); err != nil {
		return wall, cpu, fmt.Errorf("plain reduction: %w", err)
	}
	_, err = l.broadcast(phaseRestore)
	return wall, cpu, err
}

// check verifies worker w's output in bufs: every element within float32
// rounding of the reference and, past worker 0, bit-identical to worker
// 0's. A block that is zero at every worker must come back as all zero
// bits, which also makes it bit-identical across workers.
//
// The float32 sum of two float32 values is the float64 sum rounded once,
// so a correct output normally equals the reference bit for bit; when
// every worker's does, they are bit-identical too. That case is one
// memory compare per worker; only a mismatch walks the elements.
func (l *loop) check(bufs [][]float32, w int) error {
	out := bufs[w]
	if len(out) != len(l.ref) {
		return fmt.Errorf("worker %d: length %d, want %d", w, len(out), len(l.ref))
	}
	if bytes.Equal(asBytes(out), asBytes(l.ref)) && (w == 0 || bytes.Equal(asBytes(bufs[0]), asBytes(l.ref))) {
		return nil
	}
	for b, nz := range l.nonZero {
		lo, hi := b*blockSize, min(b*blockSize+blockSize, len(out))
		if !nz {
			if i := slices.IndexFunc(out[lo:hi], func(v float32) bool { return math.Float32bits(v) != 0 }); i >= 0 {
				return fmt.Errorf("worker %d: element %d = %g in an all-zero block", w, lo+i, out[lo+i])
			}
			continue
		}
		if err := checkOutput(out[lo:hi], l.ref[lo:hi]); err != nil {
			return fmt.Errorf("worker %d: block %d: %w", w, b, err)
		}
		if w > 0 {
			if err := sameBits(out[lo:hi], bufs[0][lo:hi]); err != nil {
				return fmt.Errorf("worker %d: block %d: %w", w, b, err)
			}
		}
	}
	return nil
}

// asBytes views v's memory as bytes.
func asBytes(v []float32) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v))
}

// restore copies worker w's pristine input back into bufs[w]. Only blocks
// non-zero at some worker can have changed: check has verified the others
// are still all zero.
func (l *loop) restore(bufs [][]float32, w int) {
	for b, nz := range l.nonZero {
		if nz {
			lo, hi := b*blockSize, min(b*blockSize+blockSize, len(bufs[w]))
			copy(bufs[w][lo:hi], l.inputs[w][lo:hi])
		}
	}
}

// checkOutput accepts out when every element is within float32 rounding
// of the float64 reference sum.
func checkOutput(out, ref []float32) error {
	if len(out) != len(ref) {
		return fmt.Errorf("length %d, want %d", len(out), len(ref))
	}
	for i, v := range out {
		r := ref[i]
		if v == r {
			continue
		}
		if d := math.Abs(float64(v) - float64(r)); !(d <= 1e-6*math.Abs(float64(r))) {
			return fmt.Errorf("element %d = %g, reference %g", i, v, r)
		}
	}
	return nil
}

// sameBits requires two workers' outputs to be bit-identical.
func sameBits(a, b []float32) error {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return fmt.Errorf("element %d = %g differs from worker 0's %g", i, a[i], b[i])
		}
	}
	return nil
}

// processCPU is the process's user+system CPU time so far (getrusage).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
