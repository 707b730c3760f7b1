// Command perfbench is OmniReduce's end-to-end benchmark. It acts as a
// synchronous data-parallel trainer in one process: two worker
// goroutines each issue the next AllReduce only after every worker's
// previous one has returned, with one collective in flight, on seeded
// gradients whose block structure follows a paper workload profile.
//
//	perfbench --workload dense-resnet152 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs untraced, then traced, then replays the same inputs through each
// layer's public functions, and reports the per-layer metrics. Every
// collective's output is checked; a wrong result exits non-zero. The last
// line of standard output is one JSON object.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options configure one run.
type options struct {
	wl      workload
	seed    int64
	seconds float64
	trace   bool
	out     string // directory for the traced run's span file
	setups  int    // cluster set-ups measured for setup_s
}

const (
	// setupsPerRun is how many times an untraced run builds the cluster
	// to take the median set-up time.
	setupsPerRun = 9
	// warmupShare is the untimed warm-up before measuring, as a share of
	// the measured time.
	warmupShare = 0.1
	// plainEvery is how many collectives the untraced run times per run of
	// the plain reduction the end-to-end timings are divided by.
	plainEvery = 2
	// procs is the benchmark's GOMAXPROCS. On a small shared host a
	// second P measures the neighbours: with two, a one-core CPU hog beside
	// the benchmark moved sparse-deeplight's p50 from 4.3 to 7.8 ms, while
	// with one it stayed within 1% on every workload. One P also keeps idle
	// Ps from spinning into the CPU time, and matches the single goroutine
	// of the plain reduction.
	procs = 1
)

func main() {
	var (
		name  = flag.String("workload", "", "workload name")
		seed  = flag.Int64("seed", 1, "input seed")
		secs  = flag.Float64("seconds", 30, "measured seconds")
		trace = flag.Int("trace", 0, "1 runs the traced per-layer run")
		out   = flag.String("out", ".bench_build/perfbench", "directory for span files")
	)
	flag.Parse()
	runtime.GOMAXPROCS(procs)
	wl, ok := workloadByName(*name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	res, err := run(options{wl: wl, seed: *seed, seconds: *secs, trace: *trace == 1, out: *out, setups: setupsPerRun}, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		if !isWrong(err) {
			os.Exit(1)
		}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if err != nil || res.Failed > 0 {
		os.Exit(1)
	}
}

// run executes one benchmark run and returns its result. Progress and
// the human-readable report go to log.
func run(o options, log io.Writer) (result, error) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	var err error
	if o.trace {
		err = tracedRun(o, &res, log)
	} else {
		err = untracedRun(o, &res, log)
	}
	res.Correct = !isWrong(err)
	return res, err
}

// untracedRun measures the end-to-end metrics: the program's step time
// and CPU per collective, each divided by the plain reduction's, timed in
// the same run.
func untracedRun(o options, res *result, log io.Writer) error {
	l, setupS, warm, err := start(o, o.setups, log)
	res.Attempted += warm.attempted
	res.Failed += warm.failed
	if err != nil {
		return err
	}
	defer l.stop()
	p, err := timedPhase(l, seconds(o.seconds), true)
	res.Attempted += p.attempted
	res.Failed += p.failed
	if cerr := l.c.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("close: %w", cerr)
	}
	if err != nil {
		return err
	}
	lat := latenciesMs(p.samples)
	step, cpu := p.vsPlain()
	m := res.Metrics
	m["allreduce_p50_vs_plain"] = metric{median(step), "x"}
	m["cpu_per_op_vs_plain"] = metric{median(cpu), "x"}
	m["peak_rss_MB"] = metric{peakRSSMB(), "MB"}
	m["setup_s"] = metric{median(setupS), "s"}
	var plainMs, plainCPU []float64
	for _, pa := range p.pairs {
		plainMs = append(plainMs, ms(pa.plain))
		plainCPU = append(plainCPU, ms(pa.plainCPU))
	}
	fmt.Fprintf(log, "allreduce: %d collectives in %.2fs of collective time, %d beyond p95; failed %d of %d\n",
		len(lat), p.window().Seconds(), len(lat)-int(0.95*float64(len(lat))), res.Failed, res.Attempted)
	fmt.Fprintf(log, "  allreduce p50 %.4f ms, p95 %.4f ms, %.1f MB/s at p50, cpu %.4f ms per collective\n",
		quantile(lat, 0.5), quantile(lat, 0.95), p.mbps(o.wl), p.cpuMsPerOp())
	fmt.Fprintf(log, "  plain reduction: %d runs, p50 %.4f ms, cpu p50 %.4f ms per run\n", len(p.pairs), median(plainMs), median(plainCPU))
	printMetrics(log, m)
	return nil
}

// start generates the inputs and builds the cluster setups times, timing
// each set-up through its first collective and keeping the last cluster.
// It then warms that cluster up untimed, so pools, arenas and the heap
// reach steady state. counts tallies the collectives it ran.
func start(o options, setups int, log io.Writer) (l *loop, setupS []float64, counts phaseResult, err error) {
	fmt.Fprintln(log, hardwareStamp())
	elems := o.wl.bucketBytes / 4
	inputs, gst, err := generate(o.wl.profile, elems, blockSize, numWorkers, o.seed)
	if err != nil {
		return nil, nil, counts, err
	}
	fmt.Fprintf(log, "inputs: %s profile, %d x %d floats, block density %.4f (target %.4f), union %.4f (target %.4f)\n",
		o.wl.profile.Name, numWorkers, elems, gst.AchievedBlockDensity, gst.TargetBlockDensity,
		gst.AchievedUnionDensity, gst.TargetUnionDensity)
	l = newLoop(nil, inputs, referenceSum(inputs))
	if l.plain, err = newPlainReduce(len(inputs), o.wl.fabric == fabricUDP); err != nil {
		l.stop()
		return nil, nil, counts, err
	}
	fail := func(err error) (*loop, []float64, phaseResult, error) {
		if l.c != nil {
			l.c.Close()
		}
		l.stop()
		return nil, setupS, counts, err
	}
	for i := 0; i < setups; i++ {
		if l.c != nil {
			if err := l.c.Close(); err != nil {
				return fail(fmt.Errorf("close: %w", err))
			}
		}
		t0 := time.Now()
		l.c, err = newCluster(o.wl)
		if err != nil {
			l.c = nil
			return fail(fmt.Errorf("set-up: %w", err))
		}
		s, _, err := l.step()
		counts.attempted++
		if err != nil {
			if !isWrong(err) {
				counts.failed++
			}
			return fail(err)
		}
		setupS = append(setupS, l.base.Add(s.Start+s.latency()).Sub(t0).Seconds())
	}
	warm, err := timedPhase(l, seconds(warmupShare*o.seconds), false)
	counts.attempted += warm.attempted
	counts.failed += warm.failed
	if err != nil {
		return fail(err)
	}
	return l, setupS, counts, nil
}

func isWrong(err error) bool {
	var wrong errWrong
	return errors.As(err, &wrong)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// phaseResult is what a timed phase measured.
type phaseResult struct {
	samples           []opSample
	cpu               time.Duration
	pairs             []pair
	attempted, failed int
}

// pair is one run of the plain reduction beside the plainEvery
// collectives just before it: their mean step time and CPU, and the plain
// reduction's wall and CPU time.
type pair struct {
	step, stepCPU, plain, plainCPU time.Duration
}

// vsPlain divides the program's step time and CPU by the plain
// reduction's, pair by pair, so the host's speed at that moment cancels.
func (p phaseResult) vsPlain() (step, cpu []float64) {
	for _, pa := range p.pairs {
		step = append(step, ms(pa.step)/ms(pa.plain))
		cpu = append(cpu, ms(pa.stepCPU)/ms(pa.plainCPU))
	}
	return step, cpu
}

// window is the summed collective time.
func (p phaseResult) window() time.Duration {
	var d time.Duration
	for _, s := range p.samples {
		d += s.latency()
	}
	return d
}

// mbps is the gradient bytes all workers reduce per second at the median
// step time.
func (p phaseResult) mbps(wl workload) float64 {
	return float64(numWorkers*wl.bucketBytes) / (median(latenciesMs(p.samples)) / 1e3) / 1e6
}

func (p phaseResult) cpuMsPerOp() float64 { return ms(p.cpu) / float64(max(len(p.samples), 1)) }

// timedPhase runs collectives back to back for d, at least one. With
// withPlain it also runs the plain reduction after every plainEvery
// collectives, at least once.
func timedPhase(l *loop, d time.Duration, withPlain bool) (phaseResult, error) {
	var p phaseResult
	var group pair
	start := time.Now()
	for len(p.samples) == 0 || (withPlain && len(p.pairs) == 0) || time.Since(start) < d {
		s, cpu, err := l.step()
		p.attempted++
		if err != nil {
			if !isWrong(err) {
				p.failed++
			}
			return p, err
		}
		p.samples = append(p.samples, s)
		p.cpu += cpu
		group.step += s.latency() / plainEvery
		group.stepCPU += cpu / plainEvery
		if withPlain && len(p.samples)%plainEvery == 0 {
			if group.plain, group.plainCPU, err = l.plainStep(); err != nil {
				return p, err
			}
			p.pairs = append(p.pairs, group)
			group = pair{}
		}
	}
	return p, nil
}

func printMetrics(log io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(log, "  %-34s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

func latenciesMs(samples []opSample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.latency())
	}
	return out
}

// quantile is the linearly interpolated q-quantile of v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// hardwareStamp names the machine a run measured.
func hardwareStamp() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	kernel := "unknown"
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var sb strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			sb.WriteByte(byte(c))
		}
		kernel = sb.String()
	}
	return fmt.Sprintf("hardware: cpu %q, nproc %d, GOMAXPROCS %d, %s, kernel %s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel)
}
