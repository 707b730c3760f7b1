package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"omnireduce/internal/sparsity"
)

// contract is the part of BENCHMARK.json the benchmark must honour.
type contract struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func devNull(t *testing.T) *os.File {
	t.Helper()
	f, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestTinyRunReportsEveryMetric runs every workload at a tiny size, traced
// and untraced, and requires exactly the metrics BENCHMARK.json names,
// each with its unit.
func TestTinyRunReportsEveryMetric(t *testing.T) {
	c := readContract(t)
	for _, wl := range workloads {
		wl.bucketBytes = 256 << 10
		for _, trace := range []bool{false, true} {
			want := c.EndToEnd
			if trace {
				want = c.PerLayer
			}
			o := options{wl: wl, seed: 7, seconds: 0.4, trace: trace, out: t.TempDir(), setups: 2}
			res, err := run(o, devNull(t))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d", wl.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, contract names %d", wl.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", wl.name, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: %s unit %q, want %q", wl.name, trace, m.Name, got.Unit, m.Unit)
				}
				if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v", wl.name, trace, m.Name, got.Value)
				}
			}
		}
	}
}

// TestGeneratorHitsProfileTargets checks the per-worker and union block
// densities against the profile, to within one block.
func TestGeneratorHitsProfileTargets(t *testing.T) {
	const elems = 1 << 20
	nb := float64(elems / blockSize)
	for _, p := range []*sparsity.Profile{sparsity.ResNet152, sparsity.DeepLight, sparsity.NCF, sparsity.SBERT} {
		in, st, err := generate(p, elems, blockSize, numWorkers, 3)
		if err != nil {
			t.Fatal(err)
		}
		wantBlock := 1 - p.BlockSparsity(blockSize)
		wantUnion := math.Min(1, wantBlock*p.UnionFactor(numWorkers))
		if st.TargetBlockDensity != wantBlock || st.TargetUnionDensity != wantUnion {
			t.Errorf("%s: targets %v/%v, want %v/%v", p.Name, st.TargetBlockDensity, st.TargetUnionDensity, wantBlock, wantUnion)
		}
		if d := math.Abs(st.AchievedBlockDensity - wantBlock); d > 1/nb {
			t.Errorf("%s: block density %.5f, target %.5f", p.Name, st.AchievedBlockDensity, wantBlock)
		}
		if d := math.Abs(st.AchievedUnionDensity - wantUnion); d > 1/nb {
			t.Errorf("%s: union density %.5f, target %.5f", p.Name, st.AchievedUnionDensity, wantUnion)
		}
		again, _, _ := generate(p, elems, blockSize, numWorkers, 3)
		other, _, _ := generate(p, elems, blockSize, numWorkers, 4)
		if !slices.Equal(in[1], again[1]) {
			t.Errorf("%s: same seed gave different inputs", p.Name)
		}
		if slices.Equal(in[1], other[1]) {
			t.Errorf("%s: different seeds gave the same inputs", p.Name)
		}
	}
	if _, _, err := generate(sparsity.NCF, elems, blockSize, 3, 1); err == nil {
		t.Error("3 workers accepted")
	}
}

// TestCorruptedResultCaught corrupts a collective's output after it
// returns and requires the loop to report a wrong result.
func TestCorruptedResultCaught(t *testing.T) {
	wl, _ := workloadByName("udp-ncf")
	wl.fabric = fabricChan
	inputs, _, err := generate(wl.profile, 1<<14, blockSize, numWorkers, 5)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceSum(inputs)
	for name, hook := range map[string]func(w int, out []float32){
		"one worker":  func(w int, out []float32) { out[len(out)/2] += float32(w) },
		"all workers": func(_ int, out []float32) { out[7] = out[7]*1.001 + 1 },
		"not a number": func(w int, out []float32) {
			if w == 0 {
				out[0] = float32(math.NaN())
			}
		},
		// Within tolerance of the reference, but no longer bit-identical
		// to the other worker.
		"one ulp on worker 0": func(w int, out []float32) {
			if w == 0 {
				i := slices.IndexFunc(out, func(v float32) bool { return v != 0 })
				out[i] = math.Nextafter32(out[i], float32(math.Inf(1)))
			}
		},
	} {
		c, err := newCluster(wl)
		if err != nil {
			t.Fatal(err)
		}
		l := newLoop(c, inputs, ref)
		if _, _, err := l.step(); err != nil {
			t.Fatalf("%s: clean collective: %v", name, err)
		}
		l.hook = hook
		_, _, err = l.step()
		var wrong errWrong
		if !errors.As(err, &wrong) {
			t.Errorf("%s: corrupted result not caught: %v", name, err)
		}
		l.stop()
		c.Close()
	}
}

// TestCheckOutputTolerance accepts float32 rounding of the reference and
// rejects anything larger.
func TestCheckOutputTolerance(t *testing.T) {
	ref := []float32{1, -3.5, 0, 1e-20}
	ok := []float32{math.Nextafter32(1, 2), -3.5, 0, 1e-20}
	if err := checkOutput(ok, ref); err != nil {
		t.Errorf("one ulp rejected: %v", err)
	}
	for i, bad := range [][]float32{{1.001, -3.5, 0, 1e-20}, {1, -3.5, 1e-30, 1e-20}, {1, -3.5, 0}} {
		if checkOutput(bad, ref) == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestLookaheadSkipRatio replays one full-size collective of the two
// channel workloads: the sparse one must skip at least 98% of blocks, the
// dense one none.
func TestLookaheadSkipRatio(t *testing.T) {
	for name, check := range map[string]func(float64) bool{
		"sparse-deeplight": func(r float64) bool { return r >= 0.98 },
		"dense-resnet152":  func(r float64) bool { return r == 0 },
	} {
		wl, _ := workloadByName(name)
		inputs, _, err := generate(wl.profile, wl.bucketBytes/4, blockSize, numWorkers, 9)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := newReplay(wl, &recorder{base: time.Now()})
		if err != nil {
			t.Fatal(err)
		}
		l := newLoop(nil, inputs, referenceSum(inputs))
		err = rp.op(l.bufs)
		for w := range l.bufs {
			err = errors.Join(err, l.check(l.bufs, w))
		}
		l.stop()
		rp.close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r := ratio(float64(rp.blocksSkipped), float64(rp.blocksSent+rp.blocksSkipped)); !check(r) {
			t.Errorf("%s: skip ratio %.4f", name, r)
		}
	}
}

// TestPlainReduceMatchesReference runs the yardstick reduction over
// channels and over loopback UDP and requires the loop's check to pass:
// every worker's buffer equals the reference sum, zero blocks stay zero.
func TestPlainReduceMatchesReference(t *testing.T) {
	inputs, _, err := generate(sparsity.NCF, 1<<14, blockSize, numWorkers, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, udp := range []bool{false, true} {
		p, err := newPlainReduce(numWorkers, udp)
		if err != nil {
			t.Fatal(err)
		}
		l := newLoop(nil, inputs, referenceSum(inputs))
		l.plain = p
		err = p.reduce(l.bufs)
		for w := range l.bufs {
			err = errors.Join(err, l.check(l.bufs, w))
		}
		l.stop()
		if err != nil {
			t.Errorf("udp=%v: %v", udp, err)
		}
	}
}
