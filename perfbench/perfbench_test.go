package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gpcr"
	"repro/internal/placement"
	"repro/internal/plfs"
	"repro/internal/rpc"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// testConfig runs a workload on a small system for a fixed number of
// operations per phase, so runs are short and repeatable.
func testConfig(workload string, trace bool, ops int) config {
	return config{
		workload: workload,
		seed:     7,
		seconds:  60,
		trace:    trace,
		system:   gpcr.Scaled(20),
		setups:   1,
		maxOps:   ops,
	}
}

func mustRun(t *testing.T, cfg config) *result {
	t.Helper()
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	return res
}

// benchmarkSpec reads the metric names BENCHMARK.json declares.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer []string, workloadNames []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	for _, w := range spec.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	return endToEnd, perLayer, workloadNames
}

// Every workload prints exactly the metrics BENCHMARK.json declares, the
// end-to-end ones never zero.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	endToEnd, perLayer, names := benchmarkSpec(t)
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %v, the command runs %d workloads", names, len(workloads))
	}
	for _, w := range names {
		for _, trace := range []bool{false, true} {
			res := mustRun(t, testConfig(w, trace, 2))
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			for _, name := range want {
				v, ok := res.Metrics[name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v, %v", w, trace, name, v, ok)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", w, name, v.Value)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
		}
	}
}

// A byte flipped in the stored protein subset on every node must fail the
// run's own check instead of yielding numbers.
func TestCorruptNodeByteFailsCheck(t *testing.T) {
	cfg := testConfig("view", false, 1)
	cfg.afterSetup = func(b *bench) error {
		for _, n := range b.d.nodes {
			name := "/ssd" + viewName + "/" + core.SubsetDropping(core.TagProtein)
			data, err := vfs.ReadFile(n.disk, name)
			if err != nil {
				return err
			}
			data[len(data)/2] ^= 0x40
			if err := vfs.WriteFile(n.disk, name, data); err != nil {
				return err
			}
		}
		return nil
	}
	res := mustRun(t, cfg)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted store passed the check: correct=%v failed=%d", res.Correct, res.Failed)
	}
	if len(res.Metrics) != 0 {
		t.Fatalf("failed run reported metrics: %v", res.Metrics)
	}
}

// Tracing wraps every boundary; it must not change what the program does.
func TestTracedRunMatchesUntraced(t *testing.T) {
	plain := mustRun(t, testConfig("ingest", false, 2))
	traced := mustRun(t, testConfig("ingest", true, 2))
	if !plain.Correct || !traced.Correct {
		t.Fatal("run failed its check")
	}
	if len(plain.counts) == 0 {
		t.Fatal("no counts")
	}
	for k, v := range plain.counts {
		if traced.counts[k] != v {
			t.Errorf("%s: untraced %v, traced %v", k, v, traced.counts[k])
		}
	}
	for _, k := range []string{"stored_bytes_per_input_byte", "rpc.server.requests", "plfs.containers_created"} {
		if plain.counts[k] == 0 {
			t.Errorf("%s not counted", k)
		}
	}
}

// countMetrics are the traced metrics that count work rather than time it.
func countMetrics(m map[string]metricValue) map[string]float64 {
	out := map[string]float64{}
	for k, v := range m {
		if strings.HasPrefix(k, "plfs.ops_per_frame") || k == "rpc.calls_per_frame" ||
			k == "placement.fanout" || k == "rpc.wire_bytes_per_input_byte" ||
			k == "vfs.node_bytes_written_per_input_byte" {
			out[k] = v.Value
		}
	}
	return out
}

// Count metrics repeat exactly: across runs with one seed, and across run
// lengths, because warm-up pays the one-time work and every pass is alike.
func TestCountMetricsRepeat(t *testing.T) {
	for _, w := range []string{"ingest", "view"} {
		a := countMetrics(mustRun(t, testConfig(w, true, 2)).Metrics)
		b := countMetrics(mustRun(t, testConfig(w, true, 2)).Metrics)
		c := countMetrics(mustRun(t, testConfig(w, true, 3)).Metrics)
		if a["rpc.calls_per_frame"] == 0 || a["plfs.ops_per_frame"] == 0 {
			t.Fatalf("%s: no counts: %v", w, a)
		}
		for k, v := range a {
			if b[k] != v || c[k] != v {
				t.Errorf("%s %s: %v, %v (same seed), %v (3 passes)", w, k, v, b[k], c[k])
			}
		}
	}
}

// The wrappers expose exactly the optional interfaces of what they wrap,
// so plfs keeps its server-side watch and serve its concurrent decodes.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	mem := vfs.NewMemFS()
	pool := rpc.NewPool("127.0.0.1:1", 1, nil, rpc.DefaultRetryPolicy())
	defer pool.Close()
	c, err := placement.NewCluster(&placement.Table{Version: 1, Replication: 1, Nodes: []placement.Node{{Name: "n"}}},
		map[string]vfs.FS{"n": mem}, placement.Config{HedgeDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		fs    vfs.FS
		watch bool
	}{{"memfs", mem, false}, {"pool", pool, true}, {"cluster", c, true}} {
		_, ok := wrapFS(tc.fs, tr, layerRPC, "n").(fileWatcher)
		if ok != tc.watch {
			t.Errorf("%s: wrapper watches=%v, want %v", tc.name, ok, tc.watch)
		}
	}

	store, err := plfs.New(plfs.Backend{Name: "ssd", FS: vfs.NewMemFS(), Mount: "/a"}, plfs.Backend{Name: "hdd", FS: vfs.NewMemFS(), Mount: "/b"})
	if err != nil {
		t.Fatal(err)
	}
	a := core.New(store, nil, core.Options{})
	fx, err := generate(gpcr.Scaled(50), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Ingest("/d", fx.pdb, bytes.NewReader(fx.xtc)); err != nil {
		t.Fatal(err)
	}
	sr, err := a.OpenSubsetAt("/d", core.TagProtein)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	li, err := a.OpenLiveIngest("/live", fx.pdb)
	if err != nil {
		t.Fatal(err)
	}
	defer li.Abort()
	tail, err := stream.Open(a, "/live", core.TagProtein, stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	fab := serve.New(serve.Config{Workers: 1})
	defer fab.Close()
	h := fab.Open("t", "/d", core.TagProtein, len(fx.protein), sr)
	for _, tc := range []struct {
		name             string
		src              frameSource
		concurrent, live bool
	}{{"subset", sr, true, false}, {"stream", tail, true, true}, {"handle", h, false, true}} {
		w := wrapSource(tc.src, tr, layerServe, "t")
		_, c := w.(concurrentSource)
		_, l := w.(liveSource)
		if c != tc.concurrent || l != tc.live {
			t.Errorf("%s: wrapper concurrent=%v live=%v, want %v %v", tc.name, c, l, tc.concurrent, tc.live)
		}
	}
}

func TestCPUSharesParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiling unavailable:", err)
	}
	_, err := generate(gpcr.Scaled(10), 1, 40)
	pprof.StopCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, pkg := range cpuPackages {
		v, ok := shares[pkg]
		if !ok || v < 0 {
			t.Fatalf("share %s = %v, %v", pkg, v, ok)
		}
		sum += v
	}
	if sum > 1+1e-9 {
		t.Fatalf("shares sum to %v", sum)
	}
	if _, err := cpuShares([]byte("not a profile")); err == nil {
		t.Fatal("garbage parsed as a profile")
	}
}
