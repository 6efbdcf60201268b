// Package sim provides the deterministic virtual time base used by the
// experiment harness: a clock advanced by storage, network, and CPU cost
// models; a profile that attributes elapsed time to named buckets (the
// flame-graph view of Fig 8); and an energy meter that integrates node
// power over turnaround windows (Fig 10d).
//
// Charges are deterministic: the same inputs always produce the same
// reported times and energies regardless of the host machine. Clock and
// Profile are mutex-protected so concurrent components (playback prefetch
// workers, striped PVFS servers) can charge time from several goroutines;
// components that fan work out in parallel account wall time as the slowest
// stage via ChargeConcurrent plus one AdvanceTo/Advance of the maximum.
package sim

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Clock is a virtual clock measured in seconds since the experiment epoch.
// It is safe for concurrent use (parallel ingest pipelines charge device
// time from several goroutines).
type Clock struct {
	mu  sync.Mutex
	now float64
}

// NewClock returns a clock at time zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual time in seconds.
func (c *Clock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d seconds. Negative or NaN charges are
// rejected loudly: a cost model that produces them is broken.
func (c *Clock) Advance(d float64) {
	if !(d >= 0) {
		panic(fmt.Sprintf("sim: negative or NaN clock advance %v", d))
	}
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

// AdvanceTo moves the clock forward to absolute time t, if t is later.
func (c *Clock) AdvanceTo(t float64) {
	c.mu.Lock()
	if t > c.now {
		c.now = t
	}
	c.mu.Unlock()
}

// Duration converts virtual seconds to a time.Duration for display.
func Duration(sec float64) time.Duration {
	return time.Duration(sec * float64(time.Second))
}

// Profile attributes virtual time to named buckets. Bucket names are
// hierarchical by convention ("cpu.decompress", "io.read", "net.xfer").
// It is safe for concurrent use.
type Profile struct {
	mu      sync.Mutex
	buckets map[string]float64
}

// NewProfile returns an empty profile.
func NewProfile() *Profile { return &Profile{buckets: map[string]float64{}} }

// Add charges d seconds to the named bucket.
func (p *Profile) Add(bucket string, d float64) {
	if !(d >= 0) {
		panic(fmt.Sprintf("sim: negative or NaN profile charge %v to %q", d, bucket))
	}
	p.mu.Lock()
	p.buckets[bucket] += d
	p.mu.Unlock()
}

// Get returns the time charged to a bucket.
func (p *Profile) Get(bucket string) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.buckets[bucket]
}

// Total returns the sum over all buckets.
func (p *Profile) Total() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var t float64
	for _, v := range p.buckets {
		t += v
	}
	return t
}

// TotalPrefix sums every bucket sharing the given prefix.
func (p *Profile) TotalPrefix(prefix string) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var t float64
	for k, v := range p.buckets {
		if strings.HasPrefix(k, prefix) {
			t += v
		}
	}
	return t
}

// Fraction returns the bucket's share of the profile total, or 0 for an
// empty profile.
func (p *Profile) Fraction(bucket string) float64 {
	t := p.Total()
	if t == 0 {
		return 0
	}
	return p.Get(bucket) / t
}

// Reset clears all buckets.
func (p *Profile) Reset() {
	p.mu.Lock()
	p.buckets = map[string]float64{}
	p.mu.Unlock()
}

// Clone returns an independent copy of the profile.
func (p *Profile) Clone() *Profile {
	p.mu.Lock()
	defer p.mu.Unlock()
	q := NewProfile()
	for k, v := range p.buckets {
		q.buckets[k] = v
	}
	return q
}

// Buckets returns bucket names sorted by descending charge.
func (p *Profile) Buckets() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	names := make([]string, 0, len(p.buckets))
	for k := range p.buckets {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool {
		if p.buckets[names[i]] != p.buckets[names[j]] {
			return p.buckets[names[i]] > p.buckets[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}

// String renders the profile as a flame-graph-style table.
func (p *Profile) String() string {
	var b strings.Builder
	total := p.Total()
	for _, name := range p.Buckets() {
		v := p.Get(name)
		fmt.Fprintf(&b, "%-24s %12.3fs %6.1f%%\n", name, v, 100*v/total)
	}
	return b.String()
}

// Folded renders the profile in Brendan Gregg's folded-stacks format — one
// "frame;frame;... value" line per bucket, with dots in bucket names
// becoming stack separators — so the output of the Fig 8 experiment can be
// fed straight to flamegraph.pl. Values are microseconds (integral, as the
// tooling expects).
func (p *Profile) Folded(root string) string {
	var b strings.Builder
	for _, name := range p.Buckets() {
		stack := strings.ReplaceAll(name, ".", ";")
		if root != "" {
			stack = root + ";" + stack
		}
		fmt.Fprintf(&b, "%s %d\n", stack, int64(p.Get(name)*1e6))
	}
	return b.String()
}

// EnergyMeter integrates a constant platform power over clock windows, the
// way the paper's Modbus power monitor reports whole-server energy per VMD
// process.
type EnergyMeter struct {
	clock *Clock
	// PowerWatts is the total draw of every node participating in the
	// experiment (the paper: 400 W per node).
	PowerWatts float64
	start      float64
	joules     float64
	running    bool
}

// NewEnergyMeter returns a meter over the given clock.
func NewEnergyMeter(clock *Clock, powerWatts float64) *EnergyMeter {
	return &EnergyMeter{clock: clock, PowerWatts: powerWatts}
}

// Start opens a measurement window at the current virtual time.
func (m *EnergyMeter) Start() {
	if m.running {
		panic("sim: EnergyMeter.Start while already running")
	}
	m.start = m.clock.Now()
	m.running = true
}

// Stop closes the window and accumulates its energy.
func (m *EnergyMeter) Stop() {
	if !m.running {
		panic("sim: EnergyMeter.Stop without Start")
	}
	m.joules += m.PowerWatts * (m.clock.Now() - m.start)
	m.running = false
}

// Joules returns the energy accumulated over closed windows, plus the
// currently open window if any.
func (m *EnergyMeter) Joules() float64 {
	j := m.joules
	if m.running {
		j += m.PowerWatts * (m.clock.Now() - m.start)
	}
	return j
}

// Kilojoules returns Joules()/1000, the unit of Fig 10d.
func (m *EnergyMeter) Kilojoules() float64 { return m.Joules() / 1000 }

// Env bundles the clock and profile every simulated component charges into.
type Env struct {
	Clock   *Clock
	Profile *Profile
}

// NewEnv returns a fresh environment at time zero.
func NewEnv() *Env {
	return &Env{Clock: NewClock(), Profile: NewProfile()}
}

// Charge advances the clock by d seconds and attributes it to bucket.
func (e *Env) Charge(bucket string, d float64) {
	e.Clock.Advance(d)
	e.Profile.Add(bucket, d)
}

// ChargeConcurrent attributes time that overlaps other work: it adds to the
// profile without advancing the clock (used when k servers work in
// parallel and only the slowest advances wall time).
func (e *Env) ChargeConcurrent(bucket string, d float64) {
	e.Profile.Add(bucket, d)
}
