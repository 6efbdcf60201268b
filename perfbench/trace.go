package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vfs"
	"repro/internal/xtc"
)

// Layer names a span's boundary: the layer whose entry point was called.
const (
	layerBench     = "bench"     // the benchmark's own calls into core, vmd, stream and serve
	layerServe     = "serve"     // vmd.FrameSource between PlayThrough and serve.Handle
	layerCoreRead  = "coreread"  // vmd.FrameSource between serve.Handle and the core reader
	layerPlacement = "placement" // vfs.FS between plfs and placement.Cluster
	layerRPC       = "rpc"       // vfs.FS between placement.Cluster and one rpc.Pool
	layerNode      = "vfs"       // vfs.FS between rpc.Server and its node store
)

// layerOrder lists layers from the top of the stack down; a span's parent
// is sought in the layers above it.
var layerOrder = []string{layerBench, layerServe, layerCoreRead, layerPlacement, layerRPC, layerNode}

// span is one timed call across a layer boundary.
type span struct {
	Layer  string `json:"layer"`
	Lane   string `json:"lane"` // role (bench, placement) or node name (rpc, vfs)
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a benchmark call
	Call   int    `json:"call"`   // id of the benchmark call the span belongs to, -1 if none
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory while recording is on. A nil *tracer is
// valid and records nothing, which is what the untraced run uses.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	wire  atomic.Int64 // bytes crossing the rpc connections, both directions

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// setOn switches recording on or off.
func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// begin returns the start stamp of a span, or -1 when not recording.
func (t *tracer) begin() int64 {
	if t == nil || !t.on.Load() {
		return -1
	}
	return time.Since(t.epoch).Nanoseconds()
}

// end records a span begun at start (a no-op for start < 0).
func (t *tracer) end(layer, lane, op string, start, n int64) {
	if start < 0 {
		return
	}
	end := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Layer: layer, Lane: lane, Op: op, Start: start, End: end, Bytes: n})
	t.mu.Unlock()
}

// --- vfs.FS / vfs.File wrappers ---

// fileWatcher is the optional long-poll interface plfs and placement look
// for on the file systems below them (rpc.Pool and placement.Cluster
// implement it). A wrapper that hid it would push plfs onto its 2 ms local
// polling loop, so the traced run would measure a different code path.
type fileWatcher interface {
	WatchFile(name string, lastCRC uint32, timeout time.Duration) ([]byte, uint32, bool, error)
}

// tracedFS times every call into fs at one layer boundary.
type tracedFS struct {
	fs    vfs.FS
	t     *tracer
	layer string
	lane  string
}

// watchingFS is a tracedFS over a file system that can long-poll.
type watchingFS struct {
	*tracedFS
	w fileWatcher
}

// wrapFS returns fs with every call timed as a span of layer/lane. The
// result implements fileWatcher exactly when fs does.
func wrapFS(fs vfs.FS, t *tracer, layer, lane string) vfs.FS {
	tf := &tracedFS{fs: fs, t: t, layer: layer, lane: lane}
	if w, ok := fs.(fileWatcher); ok {
		return &watchingFS{tracedFS: tf, w: w}
	}
	return tf
}

func (f *tracedFS) span(op string, start, n int64) { f.t.end(f.layer, f.lane, op, start, n) }

func (f *tracedFS) file(h vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &tracedFile{f: h, fs: f}, nil
}

func (f *tracedFS) Create(name string) (vfs.File, error) {
	s := f.t.begin()
	h, err := f.fs.Create(name)
	f.span("create", s, 0)
	return f.file(h, err)
}

func (f *tracedFS) Open(name string) (vfs.File, error) {
	s := f.t.begin()
	h, err := f.fs.Open(name)
	f.span("open", s, 0)
	return f.file(h, err)
}

func (f *tracedFS) Stat(name string) (vfs.FileInfo, error) {
	s := f.t.begin()
	info, err := f.fs.Stat(name)
	f.span("stat", s, 0)
	return info, err
}

func (f *tracedFS) ReadDir(name string) ([]vfs.FileInfo, error) {
	s := f.t.begin()
	infos, err := f.fs.ReadDir(name)
	f.span("readdir", s, 0)
	return infos, err
}

func (f *tracedFS) MkdirAll(name string) error {
	s := f.t.begin()
	err := f.fs.MkdirAll(name)
	f.span("mkdir", s, 0)
	return err
}

func (f *tracedFS) Remove(name string) error {
	s := f.t.begin()
	err := f.fs.Remove(name)
	f.span("remove", s, 0)
	return err
}

func (f *tracedFS) Rename(oldname, newname string) error {
	s := f.t.begin()
	err := f.fs.Rename(oldname, newname)
	f.span("rename", s, 0)
	return err
}

func (f *watchingFS) WatchFile(name string, lastCRC uint32, timeout time.Duration) ([]byte, uint32, bool, error) {
	s := f.t.begin()
	data, crc, changed, err := f.w.WatchFile(name, lastCRC, timeout)
	f.span("watch", s, int64(len(data)))
	return data, crc, changed, err
}

// tracedFile times every call on a handle opened through a tracedFS.
type tracedFile struct {
	f  vfs.File
	fs *tracedFS
}

func (h *tracedFile) Name() string { return h.f.Name() }

func (h *tracedFile) Size() int64 {
	s := h.fs.t.begin()
	n := h.f.Size()
	h.fs.span("size", s, 0)
	return n
}

func (h *tracedFile) Read(p []byte) (int, error) {
	s := h.fs.t.begin()
	n, err := h.f.Read(p)
	h.fs.span("read", s, int64(n))
	return n, err
}

func (h *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	s := h.fs.t.begin()
	n, err := h.f.ReadAt(p, off)
	h.fs.span("readat", s, int64(n))
	return n, err
}

func (h *tracedFile) Write(p []byte) (int, error) {
	s := h.fs.t.begin()
	n, err := h.f.Write(p)
	h.fs.span("write", s, int64(n))
	return n, err
}

func (h *tracedFile) Close() error {
	s := h.fs.t.begin()
	err := h.f.Close()
	h.fs.span("close", s, 0)
	return err
}

// --- frame source wrappers ---

// frameSource is vmd.FrameSource (and serve.FrameSource).
type frameSource interface {
	Frames() int
	ReadFrameAt(i int) (*xtc.Frame, error)
}

// The optional markers serve and vmd check on a frame source: without
// ConcurrentFrameReads serve serializes decodes behind a mutex, and Live
// switches playback into tail mode.
type concurrentSource interface{ ConcurrentFrameReads() bool }
type liveSource interface{ Live() bool }

// tracedSource times ReadFrameAt on a frame source.
type tracedSource struct {
	src   frameSource
	t     *tracer
	layer string
	lane  string
}

func (s *tracedSource) Frames() int { return s.src.Frames() }

func (s *tracedSource) ReadFrameAt(i int) (*xtc.Frame, error) {
	st := s.t.begin()
	f, err := s.src.ReadFrameAt(i)
	s.t.end(s.layer, s.lane, "read", st, 0)
	return f, err
}

type concurrentTracedSource struct {
	*tracedSource
	c concurrentSource
}

func (s *concurrentTracedSource) ConcurrentFrameReads() bool { return s.c.ConcurrentFrameReads() }

type liveTracedSource struct {
	*tracedSource
	l liveSource
}

func (s *liveTracedSource) Live() bool { return s.l.Live() }

type concurrentLiveTracedSource struct {
	*tracedSource
	c concurrentSource
	l liveSource
}

func (s *concurrentLiveTracedSource) ConcurrentFrameReads() bool { return s.c.ConcurrentFrameReads() }
func (s *concurrentLiveTracedSource) Live() bool                 { return s.l.Live() }

// wrapSource returns src with ReadFrameAt timed as a span of layer/lane.
// The result implements ConcurrentFrameReads and Live exactly when src
// does.
func wrapSource(src frameSource, t *tracer, layer, lane string) frameSource {
	ts := &tracedSource{src: src, t: t, layer: layer, lane: lane}
	c, isC := src.(concurrentSource)
	l, isL := src.(liveSource)
	switch {
	case isC && isL:
		return &concurrentLiveTracedSource{tracedSource: ts, c: c, l: l}
	case isC:
		return &concurrentTracedSource{tracedSource: ts, c: c}
	case isL:
		return &liveTracedSource{tracedSource: ts, l: l}
	}
	return ts
}

// --- transport ---

// countingConn counts the bytes crossing an rpc connection while the
// tracer records.
type countingConn struct {
	net.Conn
	t *tracer
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.t.on.Load() {
		c.t.wire.Add(int64(n))
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.t.on.Load() {
		c.t.wire.Add(int64(n))
	}
	return n, err
}

// countingDialer dials plain TCP and wraps the connection in a countingConn.
func countingDialer(t *tracer) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return &countingConn{Conn: c, t: t}, nil
	}
}
