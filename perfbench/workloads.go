package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/plfs"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/vfs"
	"repro/internal/vmd"
	"repro/internal/xtc"
)

// workload is one named input set: how many trajectory frames it
// generates, the set-up beyond deployment and data (including warm-up),
// and the measured part.
type workload struct {
	frames  int
	prepare func(b *bench) error
	run     func(b *bench) error
}

var workloads = map[string]workload{
	"ingest": {frames: 256, prepare: prepareIngest, run: runIngest},
	"view":   {frames: 128, prepare: prepareView, run: runView},
	"live":   {frames: 64, prepare: prepareLive, run: runLive},
}

// freshName returns the next unused dataset name of a kind. Names have a
// fixed width, so every pass's requests are the same size on the wire and
// count metrics repeat exactly. Only names whose ssd and hdd containers
// have different primary nodes are used: the primary serves a container's
// reads and the live head's watch, so letting the hash of each name pick
// the layout would make passes of one run differ.
func (b *bench) freshName(kind string) string {
	tbl := b.d.cluster.Table()
	for {
		b.names++
		name := fmt.Sprintf("/bench/%s-%06d", kind, b.names)
		if tbl.PlaceDir("/ssd" + name)[0] != tbl.PlaceDir("/hdd" + name)[0] {
			return name
		}
	}
}

// --- ingest: the write path, in a closed loop ---

// ingestWarmupFrames is the trajectory prefix the warm-up pass ingests:
// enough to pay the lazy dial, usage walk and directory creation.
const ingestWarmupFrames = 8

func prepareIngest(b *bench) error {
	return b.ingestPass(b.freshName("warmup"), ingestWarmupFrames, false)
}

// ingestPass ingests the first frames of the trajectory under a fresh
// name, reads the protein subset back checking every frame, and removes
// the dataset. Only Ingest is timed and traced. A pass over the whole
// trajectory also records its footprint on the nodes.
func (b *bench) ingestPass(name string, frames int, traced bool) error {
	fx := b.fx
	traj := fx.xtc[:fx.index.Offset(frames-1)+fx.index.Size(frames-1)]
	input := int64(len(traj))
	base := b.d.storedBytes()
	if traced {
		b.traceOn()
	}
	s := b.t.begin()
	start := time.Now()
	rep, err := b.d.ada.Ingest(name, fx.pdb, bytes.NewReader(traj))
	ns := time.Since(start).Nanoseconds()
	b.t.end(layerBench, roleMain, "ingest", s, input)
	if traced {
		b.traceOff()
	}
	if err == nil && rep.Frames != frames {
		err = fmt.Errorf("%d frames, want %d", rep.Frames, frames)
	}
	b.m.check(err == nil)
	if err != nil {
		return fmt.Errorf("ingest %s: %w", name, err)
	}
	b.m.op(ns, input, traced)
	if frames == fx.frames {
		b.m.stored(float64(b.d.storedBytes()-base) / float64(input))
	}
	if traced {
		b.m.addLayerFrames(frames)
	}
	if err := b.readBack(name, frames); err != nil {
		return err
	}
	return b.d.ada.Remove(name)
}

// readBack reads every protein frame of name by random access, timing each
// read as a frame sample and checking it against the reference.
func (b *bench) readBack(name string, frames int) error {
	sr, err := b.d.ada.OpenSubsetAt(name, core.TagProtein)
	if err != nil {
		b.m.check(false)
		return fmt.Errorf("read back %s: %w", name, err)
	}
	defer sr.Close()
	var total int64
	for i := 0; i < frames; i++ {
		start := time.Now()
		f, err := sr.ReadFrameAt(i)
		ns := time.Since(start).Nanoseconds()
		total += ns
		b.m.frame(ns)
		b.m.check(err == nil && b.fx.checkFrame(i, f))
	}
	b.m.view(frames, total)
	return nil
}

func runIngest(b *bench) error {
	ph := b.phase(b.cfg.seconds)
	for pass := 0; ph.more(pass); pass++ {
		if err := b.ingestPass(b.freshName("ingest"), b.fx.frames, ph.traced(pass)); err != nil {
			b.logf("%v", err)
		}
	}
	return nil
}

// --- view: turnaround loads, then two tenants browsing one fabric ---

const (
	viewName       = "/bench/view"
	viewConvPath   = "/conv/view.xtc" // the same trajectory, stored whole for the conventional path
	viewWindow     = 24               // frames a tenant sweeps back and forth
	viewSweeps     = 4                // sweeps over one window before jumping
	viewCacheBytes = 8 << 20          // ~36 protein frames: one window fits, two do not
	viewTenants    = 2
	viewWorkers    = 2
	viewRefLoads   = 3 // conventional-path loads timed by the traced run
)

func prepareView(b *bench) error {
	fx := b.fx
	input := int64(len(fx.xtc))
	if _, err := b.d.ada.Ingest(viewName, fx.pdb, bytes.NewReader(fx.xtc)); err != nil {
		return fmt.Errorf("ingest %s: %w", viewName, err)
	}
	b.m.stored(float64(b.d.storedBytes()) / float64(input))
	if err := vfs.WriteFile(b.d.cluster, viewConvPath, fx.xtc); err != nil {
		return fmt.Errorf("store %s: %w", viewConvPath, err)
	}
	// Warm-up: one turnaround load.
	sess := vmd.NewSession(nil, 0, vmd.ComputeCost{})
	return sess.LoadADASubset(b.d.ada, viewName, core.TagProtein)
}

func runView(b *bench) error {
	fx := b.fx
	input := int64(len(fx.xtc))
	var loadNS []int64

	// Phase (a): turnaround, `mol addfile bar.xtc tag p` in a closed loop.
	ph := b.phase(b.cfg.seconds / 2)
	b.windowStart("load")
	for i := 0; ph.more(i); i++ {
		traced := ph.traced(i)
		if traced {
			b.traceOn()
		}
		sess := vmd.NewSession(nil, 0, vmd.ComputeCost{})
		s := b.t.begin()
		start := time.Now()
		err := sess.LoadADASubset(b.d.ada, viewName, core.TagProtein)
		ns := time.Since(start).Nanoseconds()
		b.t.end(layerBench, roleMain, "load", s, input)
		if traced {
			b.traceOff()
		}
		ok := err == nil && sess.Frames() == fx.frames
		for j := 0; ok && j < fx.frames; j++ {
			ok = fx.checkFrame(j, sess.Frame(j))
		}
		b.m.check(ok)
		if err != nil {
			b.logf("load: %v", err)
		}
		if ok {
			b.m.op(ns, input, traced)
			loadNS = append(loadNS, ns)
			if traced {
				b.m.addLayerFrames(fx.frames)
			}
		}
		sess.Unload()
	}
	b.windowEnd("load")

	// Phase (b): browse, two tenants over one fabric with a small cache.
	if err := b.browse(b.phase(b.cfg.seconds / 2)); err != nil {
		return err
	}

	if b.t != nil {
		b.stopProfile()
		b.refConventional(loadNS)
	}
	return nil
}

// browse runs the two viewer tenants until the phase ends. The traced run
// traces the whole phase.
func (b *bench) browse(ph phase) error {
	fx := b.fx
	fab := serve.New(serve.Config{CacheBytes: viewCacheBytes, Workers: viewWorkers, Metrics: b.d.reg})
	defer fab.Close()
	handles := make([]frameSource, viewTenants)
	for k := range handles {
		src, err := b.d.ada.OpenSubsetAt(viewName, core.TagProtein)
		if err != nil {
			b.m.check(false)
			return fmt.Errorf("open %s: %w", viewName, err)
		}
		defer src.Close()
		tenant := fmt.Sprintf("t%d", k)
		var cs frameSource = src
		if b.t != nil {
			cs = wrapSource(src, b.t, layerCoreRead, tenant)
		}
		handles[k] = fab.Open(tenant, viewName, core.TagProtein, len(fx.protein), cs)
		if b.t != nil {
			handles[k] = wrapSource(handles[k], b.t, layerServe, tenant)
		}
	}

	before := b.d.reg.Snapshot().Counters
	if b.t != nil {
		b.traceOn()
	}
	b.windowStart("browse")
	errs := make([]error, viewTenants)
	var wg sync.WaitGroup
	for k, h := range handles {
		wg.Add(1)
		go func(k int, h frameSource) {
			defer wg.Done()
			errs[k] = b.tenant(ph, k, fmt.Sprintf("t%d", k), h)
		}(k, h)
	}
	wg.Wait()
	b.windowEnd("browse")
	if b.t != nil {
		b.traceOff()
	}
	after := b.d.reg.Snapshot().Counters
	for _, c := range []string{"serve.requests", "serve.cache.hits", "serve.decodes", "serve.cache.evictions"} {
		b.m.setExtra(c, float64(after[c]-before[c]))
	}
	return errors.Join(errs...)
}

// tenant plays one viewer: sweep a window back and forth, then jump to a
// window the seed picks, one PlayThrough frame at a time so each frame's
// latency is its own sample.
func (b *bench) tenant(ph phase, k int, lane string, h frameSource) error {
	fx := b.fx
	rng := rand.New(rand.NewSource(b.cfg.seed*int64(viewTenants) + int64(k)))
	sess := vmd.NewSession(nil, 0, vmd.ComputeCost{})
	src := &lastFrame{src: h}
	verified := map[*xtc.Frame]int{} // frames already checked, by identity
	sweep := vmd.BackAndForth(viewWindow, viewSweeps)
	pattern := make([]int, 1)
	for n := 0; ; {
		w := rng.Intn(fx.frames - viewWindow + 1)
		for _, i := range sweep {
			if !ph.more(n) {
				return nil
			}
			n++
			pattern[0] = w + i
			s := b.t.begin()
			start := time.Now()
			_, err := sess.PlayThrough(src, pattern)
			ns := time.Since(start).Nanoseconds()
			b.t.end(layerBench, lane, "play", s, 0)
			if err != nil {
				b.m.check(false)
				return err
			}
			b.m.play(ns)
			f := src.last
			if j, ok := verified[f]; ok {
				b.m.check(j == w+i)
				continue
			}
			ok := fx.checkFrame(w+i, f)
			b.m.check(ok)
			if ok {
				if len(verified) >= 2*viewCacheBytes/int(xtc.RawFrameSize(len(fx.protein))) {
					clear(verified) // bound the frames kept alive by the memo
				}
				verified[f] = w + i
			}
		}
	}
}

// lastFrame remembers the frame the last ReadFrameAt returned, so the
// benchmark can check what PlayThrough displayed.
type lastFrame struct {
	src  frameSource
	last *xtc.Frame
}

func (s *lastFrame) Frames() int { return s.src.Frames() }

func (s *lastFrame) ReadFrameAt(i int) (*xtc.Frame, error) {
	f, err := s.src.ReadFrameAt(i)
	s.last = f
	return f, err
}

// refConventional times the conventional path on the same cluster:
// `mol addfile bar.xtc` of the whole compressed trajectory, decoded on the
// client. It is a reference for the traced report and gates nothing.
func (b *bench) refConventional(loadNS []int64) {
	var ns []int64
	for i := 0; i < viewRefLoads; i++ {
		sess := vmd.NewSession(nil, 0, vmd.ComputeCost{})
		start := time.Now()
		err := sess.LoadCompressed(b.d.cluster, viewConvPath)
		ns = append(ns, time.Since(start).Nanoseconds())
		ok := err == nil && sess.Frames() == b.fx.frames
		for j := 0; ok && j < b.fx.frames; j++ {
			sub, serr := sess.Frame(j).Subset(b.fx.protein)
			ok = serr == nil && b.fx.checkFrame(j, sub)
		}
		b.m.check(ok)
		sess.Unload()
	}
	conv := median(ns)
	b.m.setExtra("ref.conventional_load_ms", conv/1e6)
	if ada := median(loadNS); ada > 0 {
		b.m.setExtra("ref.turnaround_ratio", conv/ada)
	}
}

// --- live: appends while a reader tails ---

const (
	liveBatchFrames = 8
	liveHeadName    = "live.json" // the head a live dataset publishes after every Append
)

func prepareLive(b *bench) error {
	fx := b.fx
	// Reference: a one-shot Ingest of the same frames on a local store,
	// which every sealed dataset's subsets must equal byte for byte.
	ref, err := plfs.New(
		plfs.Backend{Name: "ssd", FS: vfs.NewMemFS(), Mount: "/ssd"},
		plfs.Backend{Name: "hdd", FS: vfs.NewMemFS(), Mount: "/hdd"},
	)
	if err != nil {
		return err
	}
	const refName = "/ref"
	refADA := core.New(ref, nil, core.Options{})
	if _, err := refADA.Ingest(refName, fx.pdb, bytes.NewReader(fx.xtc)); err != nil {
		return fmt.Errorf("reference ingest: %w", err)
	}
	if b.liveRef, err = subsetCRCs(ref, refADA, refName); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if _, b.reader, err = b.d.client(roleReader); err != nil {
		return err
	}
	b.batches = fx.batches(liveBatchFrames)
	// Warm-up: one untailed cycle pays the lazy dial and the usage walk, and
	// measures the sealed footprint whether or not a timed cycle completes.
	return b.liveCycle(b.freshName("warmup"), time.Time{}, false, false)
}

// subsetCRCs returns the CRC32C of every subset dropping of a dataset.
func subsetCRCs(store *plfs.FS, a *core.ADA, logical string) (map[string]uint32, error) {
	m, err := a.Manifest(logical)
	if err != nil {
		return nil, err
	}
	out := map[string]uint32{}
	for tag := range m.Subsets {
		f, err := store.OpenDropping(logical, core.SubsetDropping(tag))
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		out[tag] = xtc.CRC32C(data)
	}
	return out, nil
}

func runLive(b *bench) error {
	ph := b.phase(b.cfg.seconds)
	for cycle := 0; ph.more(cycle); cycle++ {
		if err := b.liveCycle(b.freshName("live"), ph.deadline, ph.traced(cycle), true); err != nil {
			b.logf("%v", err)
		}
	}
	return nil
}

// liveCycle opens a live dataset, appends batches as fast as Append
// returns while (with tail set) one reader tails the protein subset, then
// seals, checks the sealed subsets against the one-shot reference and
// removes the dataset. Past the deadline (if set) it stops appending and
// aborts the dataset instead of sealing it.
func (b *bench) liveCycle(name string, deadline time.Time, traced, tail bool) error {
	fx := b.fx
	base := b.d.storedBytes()
	if traced {
		b.traceOn()
	}
	s := b.t.begin()
	li, err := b.d.ada.OpenLiveIngest(name, fx.pdb)
	b.t.end(layerBench, roleMain, "open", s, 0)
	if err != nil {
		if traced {
			b.traceOff()
		}
		b.m.check(false)
		return fmt.Errorf("open live %s: %w", name, err)
	}
	var tl *tailer
	if tail {
		if tl, err = b.startTail(name); err != nil {
			if traced {
				b.traceOff()
			}
			li.Abort()
			b.m.check(false)
			return err
		}
	}

	published := make([]time.Time, 0, fx.frames)
	var appendNS int64
	var appendErr error
	for _, batch := range b.batches {
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		s := b.t.begin()
		start := time.Now()
		n, err := li.Append(batch)
		ns := time.Since(start).Nanoseconds()
		b.t.end(layerBench, roleMain, "append", s, int64(len(batch)))
		visible, ok := b.d.headVisible(start)
		b.m.check(err == nil && ok)
		if err != nil {
			appendErr = fmt.Errorf("append %s: %w", name, err)
			break
		}
		for j := 0; j < n; j++ {
			published = append(published, visible)
		}
		appendNS += ns
		b.m.op(ns, int64(len(batch)), traced)
		if traced {
			b.m.addLayerFrames(n)
			b.m.addPublishes(1)
		}
	}
	sealed := len(published) == fx.frames && appendErr == nil
	if sealed {
		if tl != nil {
			// Seal once the reader holds every frame. A reader still
			// applying a head while Seal renames the staged subsets can
			// fail to open staging.subset.p — a race in the live reader
			// that a benchmark run must not trip over.
			<-tl.done
		}
		s := b.t.begin()
		_, err := li.Seal()
		b.t.end(layerBench, roleMain, "seal", s, 0)
		b.m.check(err == nil)
		if err != nil {
			appendErr = fmt.Errorf("seal %s: %w", name, err)
			sealed = false
		}
	}
	var tailErr error
	if tl != nil {
		tailErr = tl.finish(b, !sealed, published, appendNS)
	}
	if traced {
		b.traceOff()
	}
	if !sealed {
		li.Abort()
		return errors.Join(appendErr, tailErr)
	}
	b.m.stored(float64(b.d.storedBytes()-base) / float64(len(fx.xtc)))
	crcs, err := subsetCRCs(b.d.store, b.d.ada, name)
	b.m.check(err == nil && equalCRCs(crcs, b.liveRef))
	if err != nil {
		return fmt.Errorf("check %s: %w", name, err)
	}
	return errors.Join(tailErr, b.d.ada.Remove(name))
}

// tailer is the reader side of a live cycle: it reads frame i+1 as soon
// as it holds frame i, stamping when each frame arrived.
type tailer struct {
	src      *stream.Source
	done     chan struct{}
	observed []time.Time
	got      []*xtc.Frame
	err      error
}

func (b *bench) startTail(name string) (*tailer, error) {
	src, err := stream.Open(b.reader, name, core.TagProtein, stream.Options{})
	if err != nil {
		return nil, fmt.Errorf("tail %s: %w", name, err)
	}
	tl := &tailer{src: src, done: make(chan struct{})}
	go func() {
		defer close(tl.done)
		for i := 0; i < b.fx.frames; i++ {
			s := b.t.begin()
			f, err := src.ReadFrameAt(i)
			now := time.Now()
			b.t.end(layerBench, roleReader, "read", s, 0)
			if err != nil {
				if !errors.Is(err, core.ErrLiveClosed) {
					tl.err = fmt.Errorf("tail %s frame %d: %w", name, i, err)
				}
				return
			}
			tl.observed = append(tl.observed, now)
			tl.got = append(tl.got, f)
		}
	}()
	return tl, nil
}

// finish waits for the reader (closing it first when the cycle was cut
// short, which unblocks a read parked past the head), then records each
// frame's lag from its head becoming visible on a node, checks the frames
// read, and counts them as viewed over the time the producer spent in
// Append. Lag is not taken from Append returning: Append finishes the
// head's index bookkeeping after the head is visible, and on one shared
// connection per node that can wait behind the reader, so the reader often
// holds a whole batch before Append returns.
func (tl *tailer) finish(b *bench, cut bool, published []time.Time, appendNS int64) error {
	if cut {
		tl.src.Close()
	}
	<-tl.done
	tl.src.Close()
	for i, t := range tl.observed {
		if i < len(published) { // frames of a failed Append have no publish time
			b.m.frame(max(0, t.Sub(published[i]).Nanoseconds()))
		}
		b.m.check(b.fx.checkFrame(i, tl.got[i]))
	}
	b.m.view(len(tl.observed), appendNS)
	if tl.err != nil {
		b.m.check(false)
	}
	return tl.err
}

func equalCRCs(a, b map[string]uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}
