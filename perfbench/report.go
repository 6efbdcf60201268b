package main

import (
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"time"
)

// runtimeSample holds the Go runtime counters the traced run reports.
type runtimeSample struct {
	allocBytes, allocObjects float64
	gcCPU, totalCPU          float64 // seconds
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]rtmetrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	num := func(v rtmetrics.Value) float64 {
		switch v.Kind() {
		case rtmetrics.KindUint64:
			return float64(v.Uint64())
		case rtmetrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{num(s[0].Value), num(s[1].Value), num(s[2].Value), num(s[3].Value)}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes - b.allocBytes, a.allocObjects - b.allocObjects, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a runtimeSample) add(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes + b.allocBytes, a.allocObjects + b.allocObjects, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

// parentRule says where a layer's spans find their parents: the layers
// above, nearest first, and whether the parent must share the lane.
var parentRule = map[string][]struct {
	layer    string
	sameLane bool
}{
	layerServe:     {{layerBench, true}},
	layerCoreRead:  {{layerServe, true}, {layerServe, false}},
	layerPlacement: {{layerCoreRead, false}, {layerBench, true}},
	layerRPC:       {{layerPlacement, false}},
	layerNode:      {{layerRPC, true}},
}

// resolve assigns span ids, parents and benchmark-call ids. A span's parent is
// the span of the nearest layer above whose interval contains it; among
// several (concurrent callers), the one that ends first — with one
// connection per node, a call waiting for the connection ends after the
// call that holds it.
func (t *tracer) resolve() {
	spans := t.spans
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	byLayer := map[string][]int{}
	maxDur := map[string]int64{}
	for i := range spans {
		s := &spans[i]
		s.ID, s.Parent, s.Call = i, -1, -1
		byLayer[s.Layer] = append(byLayer[s.Layer], i)
		maxDur[s.Layer] = max(maxDur[s.Layer], s.dur())
	}
	for _, layer := range layerOrder {
		for _, ci := range byLayer[layer] {
			c := &spans[ci]
			if layer == layerBench {
				c.Call = c.ID
				continue
			}
			for _, rule := range parentRule[layer] {
				if p := containing(spans, byLayer[rule.layer], maxDur[rule.layer], c, rule.sameLane); p >= 0 {
					c.Parent, c.Call = p, spans[p].Call
					break
				}
			}
		}
	}
}

// containing returns the earliest-ending span among cands (ids sorted by
// start) that contains c, or -1.
func containing(spans []span, cands []int, maxDur int64, c *span, sameLane bool) int {
	hi := sort.Search(len(cands), func(i int) bool { return spans[cands[i]].Start > c.Start })
	best := -1
	for i := hi - 1; i >= 0; i-- {
		p := &spans[cands[i]]
		if p.Start < c.Start-maxDur {
			break
		}
		if p.End < c.End || (sameLane && p.Lane != c.Lane) {
			continue
		}
		if best < 0 || p.End < spans[best].End {
			best = cands[i]
		}
	}
	return best
}

// spanSet is a filtered view of the resolved spans.
type spanSet []*span

func (t *tracer) where(keep func(*span) bool) spanSet {
	var out spanSet
	for i := range t.spans {
		if keep(&t.spans[i]) {
			out = append(out, &t.spans[i])
		}
	}
	return out
}

func (s spanSet) sum() float64 {
	var ns int64
	for _, x := range s {
		ns += x.dur()
	}
	return float64(ns)
}

func (s spanSet) bytes() float64 {
	var n int64
	for _, x := range s {
		n += x.Bytes
	}
	return float64(n)
}

func (s spanSet) durations() []int64 {
	out := make([]int64, len(s))
	for i, x := range s {
		out[i] = x.dur()
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics computes the traced run's per-layer breakdown. Storage
// layers are scoped to the workload's write or load path: all recorded
// spans on ingest and live, the turnaround phase on view.
func (b *bench) layerMetrics() map[string]metricValue {
	t, m := b.t, b.m
	t.resolve()
	out := map[string]metricValue{}
	set := func(name, unit string, v float64) { out[name] = metricValue{v, unit} }

	inScope := func(s *span) bool { return true }
	wire := float64(t.wire.Load())
	if w, ok := m.windows["load"]; ok {
		lo, hi := w.start.Sub(t.epoch).Nanoseconds(), w.end.Sub(t.epoch).Nanoseconds()
		inScope = func(s *span) bool { return s.Start >= lo && s.Start <= hi }
		wire = float64(w.wire)
	}
	layer := func(name string) func(*span) bool {
		return func(s *span) bool { return s.Layer == name && inScope(s) }
	}
	frames := float64(m.layerFrames)
	input := float64(m.onBytes)
	place := t.where(layer(layerPlacement))
	rpcAll := t.where(layer(layerRPC))
	rpcCalls := t.where(func(s *span) bool { return layer(layerRPC)(s) && s.Op != "watch" })
	nodeAll := t.where(layer(layerNode))
	nodeUnderCalls := t.where(func(s *span) bool {
		return layer(layerNode)(s) && s.Parent >= 0 && t.spans[s.Parent].Op != "watch"
	})

	// core: benchmark calls on the producing/loading client minus its calls
	// into the cluster.
	benchMain := t.where(func(s *span) bool {
		return s.Layer == layerBench && s.Lane == roleMain && s.Op != "play" && inScope(s)
	})
	placeMain := t.where(func(s *span) bool { return layer(layerPlacement)(s) && s.Lane == roleMain })
	set("core.self_ms_per_frame", "ms", ratio(benchMain.sum()-placeMain.sum(), frames)/1e6)
	appends := t.where(func(s *span) bool { return s.Layer == layerBench && s.Op == "append" })
	set("core.append_ms_p50", "ms", quantile(appends.durations(), 0.50)/1e6)
	set("core.append_ms_p99", "ms", quantile(appends.durations(), 0.99)/1e6)

	// plfs: operations at the plfs→placement boundary.
	set("plfs.ops_per_frame", "count", ratio(float64(len(place)), frames))
	perOp := map[string]int{}
	for _, s := range place {
		perOp[s.Op]++
	}
	for _, op := range []string{"create", "open", "stat", "readdir", "mkdir", "rename", "remove", "write", "readat", "read", "size", "close", "watch"} {
		set("plfs.ops_per_frame."+op, "count", ratio(float64(perOp[op]), frames))
	}

	// placement
	set("placement.self_ms_per_frame", "ms", ratio(place.sum()-rpcAll.sum(), frames)/1e6)
	set("placement.fanout", "ratio", ratio(float64(len(rpcAll)), float64(len(place))))

	// rpc: pool calls minus node store time, watch long-polls apart.
	set("rpc.calls_per_frame", "count", ratio(float64(len(rpcAll)), frames))
	set("rpc.self_ms_per_frame", "ms", ratio(rpcCalls.sum()-nodeUnderCalls.sum(), frames)/1e6)
	set("rpc.wire_bytes_per_input_byte", "ratio", ratio(wire, input))
	callScope := rpcCalls
	if w, ok := m.windows["browse"]; ok {
		lo, hi := w.start.Sub(t.epoch).Nanoseconds(), w.end.Sub(t.epoch).Nanoseconds()
		callScope = t.where(func(s *span) bool { return s.Layer == layerRPC && s.Op != "watch" && s.Start >= lo && s.Start <= hi })
	}
	set("rpc.call_ms_p50", "ms", quantile(callScope.durations(), 0.50)/1e6)
	set("rpc.call_ms_p99", "ms", quantile(callScope.durations(), 0.99)/1e6)
	watches := t.where(func(s *span) bool { return s.Layer == layerRPC && s.Op == "watch" })
	set("rpc.watch_calls_per_publish", "ratio", ratio(float64(len(watches)), float64(m.publishes)))
	set("rpc.retries", "count", float64(b.d.reg.Counter("rpc.client.retries").Value()))

	// vfs on the nodes
	set("vfs.node_ms_per_frame", "ms", ratio(nodeAll.sum(), frames)/1e6)
	writes := t.where(func(s *span) bool { return layer(layerNode)(s) && s.Op == "write" })
	set("vfs.node_bytes_written_per_input_byte", "ratio", ratio(writes.bytes(), input))

	// vmd and serve (view's browse phase)
	reads := float64(m.reads)
	plays := t.where(func(s *span) bool { return s.Layer == layerBench && s.Op == "play" })
	serveSpans := t.where(func(s *span) bool { return s.Layer == layerServe })
	coreReads := t.where(func(s *span) bool { return s.Layer == layerCoreRead })
	set("vmd.self_ms_per_read", "ms", ratio(plays.sum()-serveSpans.sum(), reads)/1e6)
	set("serve.self_ms_per_read", "ms", ratio(serveSpans.sum()-coreReads.sum(), reads)/1e6)
	requests := m.extra["serve.requests"]
	set("serve.hit_ratio", "ratio", ratio(m.extra["serve.cache.hits"], requests))
	set("serve.decodes_per_read", "ratio", ratio(m.extra["serve.decodes"], requests))
	set("serve.evictions_per_read", "ratio", ratio(m.extra["serve.cache.evictions"], requests))

	// stream (live's reader)
	tails := t.where(func(s *span) bool { return s.Layer == layerBench && s.Lane == roleReader && s.Op == "read" })
	set("stream.read_ms_p50", "ms", quantile(tails.durations(), 0.50)/1e6)
	set("stream.read_ms_p99", "ms", quantile(tails.durations(), 0.99)/1e6)

	// The benchmark's own latency samples, named by the layer it calls into.
	// They span the whole measured part, untraced operations included.
	latency := func(name string, workload string, v []int64, q float64) {
		x := 0.0
		if b.cfg.workload == workload {
			x = quantile(v, q) / 1e6
		}
		set(name, "ms", x)
	}
	latency("core.ingest_ms_p50", "ingest", m.opNS, 0.50)
	latency("core.readback_ms_p50", "ingest", m.frameNS, 0.50)
	latency("core.readback_ms_p99", "ingest", m.frameNS, 0.99)
	latency("vmd.load_ms_p50", "view", m.opNS, 0.50)
	latency("vmd.load_ms_p90", "view", m.opNS, 0.90)
	latency("vmd.play_ms_p50", "view", m.frameNS, 0.50)
	latency("vmd.play_ms_p99", "view", m.frameNS, 0.99)
	latency("stream.lag_ms_p50", "live", m.frameNS, 0.50)
	latency("stream.lag_ms_p99", "live", m.frameNS, 0.99)

	// Go runtime over the recorded parts
	perFrame := frames + reads
	set("go.allocs_per_frame", "count", ratio(b.rt.allocObjects, perFrame))
	set("go.alloc_bytes_per_frame", "bytes", ratio(b.rt.allocBytes, perFrame))
	set("go.gc_cpu_fraction", "ratio", ratio(b.rt.gcCPU, b.rt.totalCPU))
	if shares, err := cpuShares(b.prof.Bytes()); err == nil {
		for pkg, v := range shares {
			set("cpu_share."+pkg, "ratio", v)
		}
	} else {
		b.logf("cpu profile: %v", err)
		for _, pkg := range cpuPackages {
			set("cpu_share."+pkg, "ratio", 0)
		}
	}

	// references
	set("ref.conventional_load_ms", "ms", m.extra["ref.conventional_load_ms"])
	set("ref.turnaround_ratio", "ratio", m.extra["ref.turnaround_ratio"])
	overhead := 0.0
	if m.offBytes > 0 && m.onBytes > 0 {
		overhead = ratio(float64(m.onNS)/float64(m.onBytes), float64(m.offNS)/float64(m.offBytes)) - 1
	}
	set("trace.overhead_ratio", "ratio", overhead)
	set("trace.spans", "count", float64(len(t.spans)))
	return out
}

// window is a named stretch of a workload's measured part.
type window struct {
	start, end time.Time
	wire       int64 // wire bytes counted by the end of the window
}

// counts returns the program's own registry counters accumulated during
// the measured part: the nodes' request counters (rpc.server.requests,
// bytes_received and the per-opcode rpc.server.op.*, all counted before a
// request is served, so they are settled when the client has its reply)
// and the client's plfs.* counters.
func (b *bench) counts() map[string]float64 {
	out := map[string]float64{"stored_bytes_per_input_byte": mean(b.m.ratios)}
	for k, v := range b.d.serverOps() {
		if k == "rpc.server.requests" || k == "rpc.server.bytes_received" || strings.HasPrefix(k, "rpc.server.op.") {
			out[k] = float64(v - b.base[k])
		}
	}
	for k, v := range b.d.reg.Snapshot().Counters {
		if strings.HasPrefix(k, "plfs.") {
			out[k] = float64(v - b.base[k])
		}
	}
	return out
}
