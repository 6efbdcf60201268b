// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload over a fixed deployment — two in-process storage nodes on
// loopback TCP, one placement cluster with R=2, one plfs store, core with
// default options — driving the public layer APIs from this process, checks
// every output against a reference built from the seed, and prints one JSON
// result line.
//
//	perfbench --workload ingest|view|live --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer breakdown, measured by timing calls at each layer
// boundary from wrappers in this package. README.md lists every metric.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gpcr"
)

const (
	roleMain   = "main"   // the producer or viewer client
	roleReader = "reader" // the tailing reader on live
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	system   gpcr.Config
	setups   int    // set-ups per run; setup_s is their median
	maxOps   int    // when > 0, each phase stops after this many operations instead of by time
	traceOut string // directory the traced run writes its spans to ("" = none)
	// afterSetup, when set, runs between set-up and the measured part.
	afterSetup func(b *bench) error
	log        io.Writer
}

func main() {
	cfg := config{system: gpcr.Default(), setups: 3, traceOut: filepath.Join(".bench_build", "traces"), log: os.Stderr}
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: ingest, view or live")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the trajectory's motion and the viewers' jumps are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "seconds the measured part runs")
	traceFlag := flag.Int("trace", 0, "1 reports the per-layer breakdown instead of the end-to-end metrics")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	if flag.NArg() > 0 || (*traceFlag != 0 && *traceFlag != 1) || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the command prints. A run whose outputs fail their
// check reports no metrics.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// counts are count metrics read from the program's own registries,
	// for tests that compare runs.
	counts map[string]float64
}

// bench is one run in progress.
type bench struct {
	cfg config
	t   *tracer // nil in the untraced run
	d   *deployment
	fx  *fixture
	m   *measure

	reader  *core.ADA         // live: the tailing reader's client
	liveRef map[string]uint32 // live: subset CRCs of the one-shot reference
	batches [][]byte          // live: 8-frame append batches
	names   int               // dataset names handed out (freshName)

	base map[string]int64 // registry counters when the measured part began

	rtStart   runtimeSample
	rt        runtimeSample // runtime deltas summed over the traced parts
	profiling bool
	prof      bytes.Buffer
}

func (b *bench) logf(format string, args ...any) {
	if b.cfg.log != nil {
		fmt.Fprintf(b.cfg.log, "perfbench: "+format+"\n", args...)
	}
}

// run sets the workload up cfg.setups times (timing each), measures on the
// last set-up, and reports.
func run(cfg config) (*result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have ingest, view, live)", cfg.workload)
	}
	var setupNS []int64
	var b *bench
	for i := 0; i < max(cfg.setups, 1); i++ {
		if b != nil {
			if err := b.d.close(); err != nil {
				return nil, err
			}
			b = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		b, err = setup(cfg, w)
		if err != nil {
			return nil, err
		}
		setupNS = append(setupNS, time.Since(start).Nanoseconds())
	}
	defer b.d.close()
	if cfg.afterSetup != nil {
		if err := cfg.afterSetup(b); err != nil {
			return nil, err
		}
	}
	b.m.resetMeasured()
	b.base = b.d.serverOps()
	for k, v := range b.d.reg.Snapshot().Counters {
		b.base[k] = v
	}
	if err := w.run(b); err != nil {
		b.logf("%s: %v", cfg.workload, err)
		b.m.check(false)
	}
	b.stopProfile()
	res := &result{
		Correct:   b.m.failed == 0 && b.m.attempted > 0,
		Attempted: b.m.attempted,
		Failed:    b.m.failed,
		Metrics:   map[string]metricValue{},
		counts:    b.counts(),
	}
	if !res.Correct {
		return res, nil
	}
	if cfg.trace {
		res.Metrics = b.layerMetrics()
		if cfg.traceOut != "" {
			if err := b.writeSpans(); err != nil {
				return nil, err
			}
		}
		return res, nil
	}
	res.Metrics = b.endToEnd(setupNS)
	return res, nil
}

// setup deploys the stack, generates the workload's data from the seed, and
// runs the workload's own preparation and warm-up.
func setup(cfg config, w workload) (*bench, error) {
	b := &bench{cfg: cfg, m: newMeasure()}
	if cfg.trace {
		b.t = newTracer()
	}
	var err error
	if b.d, err = deploy(b.t); err != nil {
		return nil, err
	}
	if b.fx, err = generate(cfg.system, cfg.seed, w.frames); err != nil {
		b.d.close()
		return nil, err
	}
	if err := w.prepare(b); err != nil {
		b.d.close()
		return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
	}
	return b, nil
}

// phase is one timed part of a workload.
type phase struct {
	b        *bench
	deadline time.Time // zero when the phase is bounded by operation count
}

func (b *bench) phase(seconds float64) phase {
	p := phase{b: b}
	if b.cfg.maxOps == 0 {
		p.deadline = time.Now().Add(time.Duration(seconds * float64(time.Second)))
	}
	return p
}

// more reports whether operation i of the phase should run.
func (p phase) more(i int) bool {
	if p.b.cfg.maxOps > 0 {
		return i < p.b.cfg.maxOps
	}
	return time.Now().Before(p.deadline)
}

// traced reports whether operation i is recorded. A traced run bounded by
// time records every other operation and runs the rest with recording off,
// so it can report its own tracing overhead from operations interleaved
// over the same stretch of the run.
func (p phase) traced(i int) bool {
	if p.b.t == nil {
		return false
	}
	return p.b.cfg.maxOps > 0 || i%2 == 1
}

// traceOn starts recording spans, runtime counters and the CPU profile.
func (b *bench) traceOn() {
	b.t.setOn(true)
	if !b.profiling && b.prof.Len() == 0 {
		if err := pprof.StartCPUProfile(&b.prof); err == nil {
			b.profiling = true
		}
	}
	b.rtStart = readRuntime()
}

// stopProfile ends the traced run's CPU profile, so work after the
// measured part stays out of the cpu_share metrics.
func (b *bench) stopProfile() {
	if b.profiling {
		pprof.StopCPUProfile()
		b.profiling = false
	}
}

// traceOff stops recording spans and adds the runtime counters' deltas.
func (b *bench) traceOff() {
	b.t.setOn(false)
	b.rt = b.rt.add(readRuntime().sub(b.rtStart))
}

// measure collects one run's samples. Safe for concurrent use.
type measure struct {
	mu        sync.Mutex
	attempted int64
	failed    int64

	opNS    []int64 // the workload's primary operation: Ingest, turnaround load, or Append
	opBytes int64   // input XTC bytes through those operations
	opSum   int64
	frameNS []int64   // per-frame waits: read-back, PlayThrough frame, or tail lag
	viewed  int64     // frames delivered to the viewer
	viewNS  int64     // time spent viewing them
	ratios  []float64 // stored bytes per input byte

	// traced runs: primary operations split by whether they were recorded
	onNS, onBytes, offNS, offBytes int64
	layerFrames                    int64 // input frames (ingest, live) or frames loaded (view) while recording
	reads                          int64 // PlayThrough frames on view
	publishes                      int64 // Appends while recording on live
	extra                          map[string]float64
	windows                        map[string]window
}

func newMeasure() *measure {
	return &measure{extra: map[string]float64{}, windows: map[string]window{}}
}

// resetMeasured drops what set-up recorded, except the stored footprint
// view measures at set-up.
func (m *measure) resetMeasured() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.attempted, m.failed = 0, 0
	m.opNS, m.opBytes, m.opSum, m.frameNS, m.viewed, m.viewNS = nil, 0, 0, nil, 0, 0
	m.onNS, m.onBytes, m.offNS, m.offBytes = 0, 0, 0, 0
	m.layerFrames, m.reads, m.publishes = 0, 0, 0
}

func (m *measure) check(ok bool) {
	m.mu.Lock()
	m.attempted++
	if !ok {
		m.failed++
	}
	m.mu.Unlock()
}

func (m *measure) op(ns, bytes int64, traced bool) {
	m.mu.Lock()
	m.opNS = append(m.opNS, ns)
	m.opBytes += bytes
	m.opSum += ns
	if traced {
		m.onNS += ns
		m.onBytes += bytes
	} else {
		m.offNS += ns
		m.offBytes += bytes
	}
	m.mu.Unlock()
}

func (m *measure) frame(ns int64) {
	m.mu.Lock()
	m.frameNS = append(m.frameNS, ns)
	m.mu.Unlock()
}

// view adds frames delivered to the viewer over ns of viewing.
func (m *measure) view(frames int, ns int64) {
	m.mu.Lock()
	m.viewed += int64(frames)
	m.viewNS += ns
	m.mu.Unlock()
}

func (m *measure) stored(ratio float64) {
	m.mu.Lock()
	m.ratios = append(m.ratios, ratio)
	m.mu.Unlock()
}

func (m *measure) addLayerFrames(n int) {
	m.mu.Lock()
	m.layerFrames += int64(n)
	m.mu.Unlock()
}

// play records one browsed frame: a latency sample, a read, and viewing
// time.
func (m *measure) play(ns int64) {
	m.mu.Lock()
	m.frameNS = append(m.frameNS, ns)
	m.reads++
	m.viewed++
	m.viewNS += ns
	m.mu.Unlock()
}

func (m *measure) addPublishes(n int) {
	m.mu.Lock()
	m.publishes += int64(n)
	m.mu.Unlock()
}

func (m *measure) setExtra(name string, v float64) {
	m.mu.Lock()
	m.extra[name] = v
	m.mu.Unlock()
}

// windowStart and windowEnd mark a named part of the measured run, so the
// traced report can scope spans and wire bytes to it.
func (b *bench) windowStart(name string) {
	b.m.mu.Lock()
	b.m.windows[name] = window{start: time.Now()}
	b.m.mu.Unlock()
}

func (b *bench) windowEnd(name string) {
	b.m.mu.Lock()
	w := b.m.windows[name]
	w.end = time.Now()
	if b.t != nil {
		w.wire = b.t.wire.Load()
	}
	b.m.windows[name] = w
	b.m.mu.Unlock()
}

// endToEnd computes the metrics a user of the system sees.
func (b *bench) endToEnd(setupNS []int64) map[string]metricValue {
	m := b.m
	return map[string]metricValue{
		"setup_s":                     {median(setupNS) / 1e9, "s"},
		"mbps":                        {float64(m.opBytes) / 1e6 / (float64(m.opSum) / 1e9), "MB/s"},
		"frames_per_s":                {float64(m.viewed) / (float64(m.viewNS) / 1e9), "1/s"},
		"stored_bytes_per_input_byte": {mean(m.ratios), "ratio"},
		"peak_rss_mb":                 {peakRSSMB(), "MB"},
	}
}

// writeSpans writes the traced run's spans, one JSON object a line, with
// parents and benchmark-call ids resolved.
func (b *bench) writeSpans() error {
	if err := os.MkdirAll(b.cfg.traceOut, 0o755); err != nil {
		return err
	}
	name := filepath.Join(b.cfg.traceOut, b.cfg.workload+".jsonl")
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range b.t.spans {
		if err := enc.Encode(&b.t.spans[i]); err != nil {
			return err
		}
	}
	return os.WriteFile(name, buf.Bytes(), 0o644)
}

// --- statistics ---

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile is the nearest-rank q-quantile (0 for no samples).
func quantile(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	i := int(q*float64(len(s))+0.999999999) - 1
	return float64(s[min(max(i, 0), len(s)-1)])
}

// median averages the two middle samples of an even count.
func median(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return float64(s[n/2])
	}
	return (float64(s[n/2-1]) + float64(s[n/2])) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb * 1024 / 1e6
		}
	}
	return 0
}
