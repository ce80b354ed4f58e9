package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"slfe/internal/comm"
	"slfe/internal/graph"
)

// This file holds the benchmark's instruments. They wrap the system's
// public boundaries from outside — the transports and the graph.View the
// engine is handed — so no engine code changes; the spans they record are
// kept in memory and written out when the run ends.

// span is one timed interval at a wrapped boundary. Spans of one job share
// Job; Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans. A nil *tracer records nothing, so untraced runs
// pass nil through the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, job, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Job: job, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// selfTimes returns, per span name, the summed self time in seconds: each
// span's duration minus the part of its interval that its children cover
// (children may overlap one another, e.g. two ranks' receives).
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		out[s.Name] += float64(s.End-s.Start-covered(s, children[s.ID])) / 1e9
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to parent's interval.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	lo, hi := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if k.End < 0 || e <= s {
			continue
		}
		if s > hi {
			total += hi - lo
			lo, hi = s, e
		} else if e > hi {
			hi = e
		}
	}
	return total + hi - lo
}

// write stores every span plus the per-name self times as JSON at path.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"spans": t.spans, "self_s": self})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// commProbe wraps one rank's comm.Transport. It always counts messages and
// payload bytes at Send (cheap: a superstep sends a handful of messages);
// with a tracer it also times every Send and every blocking Recv as spans.
type commProbe struct {
	comm.Transport
	tr          *tracer
	job, parent int
	msgs, bytes atomic.Int64
	sendNs      atomic.Int64
	recvNs      atomic.Int64
}

func (p *commProbe) Send(to int, typ uint16, payload []byte) error {
	p.msgs.Add(1)
	p.bytes.Add(int64(len(payload)))
	if p.tr == nil {
		return p.Transport.Send(to, typ, payload)
	}
	id := p.tr.begin("comm.send", p.job, p.parent)
	err := p.Transport.Send(to, typ, payload)
	p.sendNs.Add(int64(p.tr.end(id)))
	return err
}

func (p *commProbe) Recv(typ uint16) (comm.Message, error) {
	if p.tr == nil {
		return p.Transport.Recv(typ)
	}
	id := p.tr.begin("comm.recv", p.job, p.parent)
	m, err := p.Transport.Recv(typ)
	p.recvNs.Add(int64(p.tr.end(id)))
	return m, err
}

// Abort forwards the group teardown the engine relies on after a failure;
// embedding alone would hide the wrapped transport's comm.Aborter.
func (p *commProbe) Abort() { comm.Abort(p.Transport) }

// adjProbe wraps one graph.Cursor: it counts adjacency calls and the edges
// they return, and times one call in adjSample (timing every call would
// cost more than a heap adjacency read itself).
type adjProbe struct {
	inner     graph.Cursor
	calls     int64
	edges     int64
	timed     int64
	timedNs   int64
	sampleCtr int64
}

const adjSample = 64

func (c *adjProbe) sample() (time.Time, bool) {
	c.calls++
	c.sampleCtr++
	if c.sampleCtr < adjSample {
		return time.Time{}, false
	}
	c.sampleCtr = 0
	return time.Now(), true
}

func (c *adjProbe) done(t0 time.Time, on bool) {
	if on {
		c.timed++
		c.timedNs += time.Since(t0).Nanoseconds()
	}
}

func (c *adjProbe) OutNeighbors(v graph.VertexID) []graph.VertexID {
	t0, on := c.sample()
	ns := c.inner.OutNeighbors(v)
	c.done(t0, on)
	c.edges += int64(len(ns))
	return ns
}

func (c *adjProbe) InNeighbors(v graph.VertexID) []graph.VertexID {
	t0, on := c.sample()
	ns := c.inner.InNeighbors(v)
	c.done(t0, on)
	c.edges += int64(len(ns))
	return ns
}

func (c *adjProbe) OutWeights(v graph.VertexID) []float32 {
	t0, on := c.sample()
	ws := c.inner.OutWeights(v)
	c.done(t0, on)
	return ws
}

func (c *adjProbe) InWeights(v graph.VertexID) []float32 {
	t0, on := c.sample()
	ws := c.inner.InWeights(v)
	c.done(t0, on)
	return ws
}

// viewProbe wraps a graph.View; every Cursor it hands out is an adjProbe,
// and its own adjacency methods go through one more (single-goroutine, as
// the View contract requires of them).
type viewProbe struct {
	graph.View
	self adjProbe
	mu   sync.Mutex
	curs []*adjProbe
}

func newViewProbe(g graph.View) *viewProbe {
	return &viewProbe{View: g, self: adjProbe{inner: g}}
}

func (v *viewProbe) Cursor() graph.Cursor {
	c := &adjProbe{inner: v.View.Cursor()}
	v.mu.Lock()
	v.curs = append(v.curs, c)
	v.mu.Unlock()
	return c
}

func (v *viewProbe) OutNeighbors(u graph.VertexID) []graph.VertexID { return v.self.OutNeighbors(u) }
func (v *viewProbe) InNeighbors(u graph.VertexID) []graph.VertexID  { return v.self.InNeighbors(u) }
func (v *viewProbe) OutWeights(u graph.VertexID) []float32          { return v.self.OutWeights(u) }
func (v *viewProbe) InWeights(u graph.VertexID) []float32           { return v.self.InWeights(u) }

// totals sums every cursor's counters; adjS extrapolates the sampled
// timings to all calls. Call it once the job has returned.
func (v *viewProbe) totals() (calls, edges int64, adjS float64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	var timed, timedNs int64
	for _, c := range append([]*adjProbe{&v.self}, v.curs...) {
		calls += c.calls
		edges += c.edges
		timed += c.timed
		timedNs += c.timedNs
	}
	if timed > 0 {
		adjS = float64(timedNs) / float64(timed) * float64(calls) / 1e9
	}
	return calls, edges, adjS
}
