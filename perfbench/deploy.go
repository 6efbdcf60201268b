package main

import (
	"errors"
	"fmt"
	"net"
	"path"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/placement"
	"repro/internal/plfs"
	"repro/internal/rpc"
	"repro/internal/vfs"
)

// node is one storage node: an in-memory store served by an rpc.Server on
// a loopback TCP listener, and the client's one-connection pool to it.
type node struct {
	name   string
	disk   *vfs.MemFS
	heads  *headStamp
	srv    *rpc.Server
	reg    *metrics.Registry // server-side rpc.server.* counters
	ln     net.Listener
	served chan error
	pool   *rpc.Pool
}

// deployment is the fixed stack every workload runs on: two nodes, one
// placement.Cluster with R=2 and hedging off, and a plfs store whose ssd
// and hdd backends are both mounted on the cluster.
type deployment struct {
	t       *tracer           // nil in the untraced run
	reg     *metrics.Registry // client-side counters (rpc client, placement, plfs, core, serve)
	nodes   []*node
	cluster *placement.Cluster
	store   *plfs.FS
	ada     *core.ADA
}

// deploy starts the nodes and builds the client stack over them. With a
// tracer, every boundary below core is wrapped: server→store, pool
// (through a byte-counting dialer), cluster→pool and plfs→cluster.
func deploy(t *tracer) (*deployment, error) {
	d := &deployment{t: t, reg: metrics.NewRegistry()}
	fss := map[string]vfs.FS{}
	var tbl []placement.Node
	for _, name := range []string{"n1", "n2"} {
		n, err := d.startNode(name)
		if err != nil {
			d.close()
			return nil, err
		}
		tbl = append(tbl, placement.Node{Name: name, Addr: n.ln.Addr().String()})
		fss[name] = n.pool
		if t != nil {
			fss[name] = wrapFS(n.pool, t, layerRPC, name)
		}
	}
	c, err := placement.NewCluster(&placement.Table{Version: 1, Replication: 2, Nodes: tbl}, fss,
		placement.Config{HedgeDelay: -1, Metrics: d.reg})
	if err != nil {
		d.close()
		return nil, err
	}
	d.cluster = c
	d.store, d.ada, err = d.client("main")
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *deployment) startNode(name string) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("node %s: %w", name, err)
	}
	n := &node{name: name, disk: vfs.NewMemFS(), reg: metrics.NewRegistry(), ln: ln, served: make(chan error, 1)}
	n.heads = &headStamp{FS: n.disk}
	var store vfs.FS = n.heads
	var dial rpc.Dialer
	if d.t != nil {
		store = wrapFS(n.heads, d.t, layerNode, name)
		dial = countingDialer(d.t)
	}
	n.srv = rpc.NewServer(store, nil)
	n.srv.SetMetrics(n.reg)
	go func() { n.served <- n.srv.Serve(ln) }()
	n.pool = rpc.NewPool(ln.Addr().String(), 1, dial, rpc.DefaultRetryPolicy())
	n.pool.SetMetrics(d.reg)
	d.nodes = append(d.nodes, n)
	return n, nil
}

// client returns a container store and acquirer over the cluster for one
// client role. Roles share the cluster and its two connections; each gets
// its own plfs→cluster boundary so the trace can tell a producer's calls
// from a reader's.
func (d *deployment) client(role string) (*plfs.FS, *core.ADA, error) {
	var top vfs.FS = d.cluster
	if d.t != nil {
		top = wrapFS(d.cluster, d.t, layerPlacement, role)
	}
	store, err := plfs.New(
		plfs.Backend{Name: "ssd", FS: top, Mount: "/ssd"},
		plfs.Backend{Name: "hdd", FS: top, Mount: "/hdd"},
	)
	if err != nil {
		return nil, nil, err
	}
	store.SetMetrics(d.reg)
	return store, core.New(store, nil, core.Options{Metrics: d.reg}), nil
}

// headStamp passes a node store through and stamps when a live head lands
// on it: the rename of a dataset's live.json is the instant a tailing
// reader watching that node can see the new head.
type headStamp struct {
	vfs.FS
	at atomic.Int64 // wall clock, ns since the Unix epoch
}

func (h *headStamp) Rename(oldname, newname string) error {
	err := h.FS.Rename(oldname, newname)
	if err == nil && path.Base(newname) == liveHeadName {
		h.at.Store(time.Now().UnixNano())
	}
	return err
}

// headVisible returns when the first node received a live head after
// since, or false if none has.
func (d *deployment) headVisible(since time.Time) (time.Time, bool) {
	var first int64
	for _, n := range d.nodes {
		if at := n.heads.at.Load(); at >= since.UnixNano() && (first == 0 || at < first) {
			first = at
		}
	}
	return time.Unix(0, first), first != 0
}

// storedBytes sums the sizes of every file on both node stores.
func (d *deployment) storedBytes() int64 {
	var total int64
	for _, n := range d.nodes {
		vfs.Walk(n.disk, "/", func(_ string, info vfs.FileInfo) error {
			if !info.IsDir {
				total += info.Size
			}
			return nil
		})
	}
	return total
}

// serverOps sums the nodes' per-opcode request counters.
func (d *deployment) serverOps() map[string]int64 {
	out := map[string]int64{}
	for _, n := range d.nodes {
		for k, v := range n.reg.Snapshot().Counters {
			out[k] += v
		}
	}
	return out
}

// close shuts the pools and nodes down and waits for every accept loop.
func (d *deployment) close() error {
	var errs []error
	for _, n := range d.nodes {
		n.pool.Close()
		n.srv.Close()
		if err := <-n.served; err != nil && !errors.Is(err, rpc.ErrServerClosed) {
			errs = append(errs, fmt.Errorf("node %s: %w", n.name, err))
		}
	}
	d.nodes = nil
	return errors.Join(errs...)
}
